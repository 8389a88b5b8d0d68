package trace

import (
	"fmt"
	"sync"
	"testing"
)

func TestRingRecordAndSnapshot(t *testing.T) {
	r := NewRing(16)
	if r.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", r.Cap())
	}
	r.RecordAt("tx-1", StageSubmit, 0, 100)
	r.RecordAt("tx-1", StageSeal, 7, 200)
	r.RecordAt("tx-2", StageCommit, 7, 300)
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	want := []Event{
		{TxID: "tx-1", Stage: StageSubmit, Block: 0, WallNS: 100, Seq: 1},
		{TxID: "tx-1", Stage: StageSeal, Block: 7, WallNS: 200, Seq: 2},
		{TxID: "tx-2", Stage: StageCommit, Block: 7, WallNS: 300, Seq: 3},
	}
	for i, ev := range evs {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	if r.Recorded() != 3 {
		t.Errorf("Recorded = %d, want 3", r.Recorded())
	}
}

func TestRingRoundsCapacityUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultRingSize}, {-1, DefaultRingSize}, {1, 1}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := NewRing(tc.in).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRingWraparoundOverwritesOldest(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 20; i++ {
		r.RecordAt(fmt.Sprintf("tx-%d", i), StageOrder, uint64(i), int64(i))
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want the 8 newest", len(evs))
	}
	// The surviving window is exactly records 12..19, oldest first.
	for i, ev := range evs {
		wantIdx := 12 + i
		if ev.TxID != fmt.Sprintf("tx-%d", wantIdx) || ev.Seq != uint64(wantIdx+1) {
			t.Errorf("event %d = %+v, want tx-%d seq %d", i, ev, wantIdx, wantIdx+1)
		}
	}
	if r.Recorded() != 20 {
		t.Errorf("Recorded = %d, want 20", r.Recorded())
	}
}

func TestRingTruncatesLongTxIDs(t *testing.T) {
	r := NewRing(4)
	long := make([]byte, 2*MaxTxIDLen)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	r.RecordAt(string(long), StageSubmit, 0, 1)
	evs := r.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].TxID != string(long[:MaxTxIDLen]) {
		t.Errorf("TxID = %q, want the %d-byte prefix", evs[0].TxID, MaxTxIDLen)
	}
}

// TestRingConcurrentStress hammers a small ring from many writers while a
// drainer loops, asserting under -race that every drained event is
// internally consistent: the TxID, stage, block, and timestamp of one
// logical record, never a torn mix of two.
func TestRingConcurrentStress(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	r := NewRing(64) // small: force constant wraparound contention
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Every field derives from (w, i), so a drain can verify
				// that no slot mixes two records.
				id := fmt.Sprintf("w%02d-i%06d", w, i)
				stage := Stage(1 + (i % NumStages))
				block := uint64(w)<<32 | uint64(i)
				wall := int64(block) + 1
				r.RecordAt(id, stage, block, wall)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	checked := 0
	for {
		evs := r.Snapshot()
		for _, ev := range evs {
			verifyStressEvent(t, ev)
			checked++
		}
		select {
		case <-done:
			for _, ev := range r.Snapshot() {
				verifyStressEvent(t, ev)
				checked++
			}
			if checked == 0 {
				t.Fatal("drainer never observed an event")
			}
			return
		default:
		}
	}
}

func verifyStressEvent(t *testing.T, ev Event) {
	t.Helper()
	var w, i int
	if n, err := fmt.Sscanf(ev.TxID, "w%02d-i%06d", &w, &i); n != 2 || err != nil {
		t.Fatalf("torn TxID %q", ev.TxID)
	}
	if wantBlock := uint64(w)<<32 | uint64(i); ev.Block != wantBlock {
		t.Fatalf("event %q carries block %d, want %d (torn slot)", ev.TxID, ev.Block, wantBlock)
	}
	if ev.WallNS != int64(ev.Block)+1 {
		t.Fatalf("event %q carries wall %d, want %d (torn slot)", ev.TxID, ev.WallNS, int64(ev.Block)+1)
	}
	if wantStage := Stage(1 + (i % NumStages)); ev.Stage != wantStage {
		t.Fatalf("event %q carries stage %v, want %v (torn slot)", ev.TxID, ev.Stage, wantStage)
	}
}

// TestRingDrainWhileWritingConsistentPrefix drains mid-stream and asserts
// the snapshot is a consistent window: per writer, the observed indices are
// each valid, and the snapshot is ordered by ticket.
func TestRingDrainWhileWritingConsistentPrefix(t *testing.T) {
	r := NewRing(128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.RecordAt(fmt.Sprintf("w00-i%06d", i%1000000), Stage(1+(i%NumStages)), uint64(i%1000000), int64(i%1000000)+1)
		}
	}()
	for drain := 0; drain < 50; drain++ {
		evs := r.Snapshot()
		last := uint64(0)
		for _, ev := range evs {
			if ev.Seq <= last {
				t.Fatalf("snapshot out of ticket order: %d after %d", ev.Seq, last)
			}
			last = ev.Seq
		}
	}
	close(stop)
	wg.Wait()
}

// TestRecordPathZeroAllocs is the hot-path contract: recording must not
// allocate, or an always-on tracer would pressure the GC under load.
func TestRecordPathZeroAllocs(t *testing.T) {
	r := NewRing(1 << 10)
	id := "load3-000042"
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordAt(id, StageCommit, 12, 34)
	})
	if allocs != 0 {
		t.Fatalf("RecordAt allocates %.1f objects/op, want 0", allocs)
	}
	tr := New("peer0", "peer", 1<<10)
	allocs = testing.AllocsPerRun(1000, func() {
		tr.Record(id, StageCommit, 12)
	})
	if allocs != 0 {
		t.Fatalf("Tracer.Record allocates %.1f objects/op, want 0", allocs)
	}
	since := tr.Now()
	allocs = testing.AllocsPerRun(1000, func() {
		since = tr.RecordSpan(18446744073709551615, StageFormation, since)
	})
	if allocs != 0 {
		t.Fatalf("Tracer.RecordSpan allocates %.1f objects/op, want 0", allocs)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record("tx", StageSubmit, 0) // must not panic
	if d := tr.Dump(); d.Recorded != 0 || len(d.Events) != 0 {
		t.Fatalf("nil dump = %+v, want empty", d)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := NewRing(1 << 17)
	id := "load7-123456"
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.RecordAt(id, StageValidate, 99, 1234567890)
		}
	})
}
