package fabric_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"fabricsharp/internal/node"
	"fabricsharp/internal/sched"
)

func TestRangeQueryManifest(t *testing.T) {
	n := newNet(t, node.NetworkOptions{System: sched.SystemSharp})
	client, _ := n.NewClient("c")
	for _, id := range []string{"c3", "a1", "b2"} {
		if _, err := client.MustSubmit("supplychain", "register", id, "acme", "loc"); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := client.Query("supplychain", "manifest")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	if err := json.Unmarshal(raw, &ids); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[a1 b2 c3]" {
		t.Errorf("manifest = %v", ids)
	}
}

func TestRangeQueryAsTransactionSerializes(t *testing.T) {
	// A manifest submitted as a transaction records per-key read versions;
	// it must commit and the run must stay serializable end to end.
	n := newNet(t, node.NetworkOptions{System: sched.SystemSharp})
	client, _ := n.NewClient("c")
	for i := 0; i < 3; i++ {
		if _, err := client.MustSubmit("supplychain", "register", fmt.Sprintf("it%d", i), "o", "l"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.MustSubmit("supplychain", "manifest"); err != nil {
		t.Fatal(err)
	}
}
