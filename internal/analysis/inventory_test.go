package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func fixtureDirs() []*Directive {
	return []*Directive{
		{File: "internal/core/graph.go", Analyzer: "maporder", Reason: "bloom union commutes", Pos: token.Position{Filename: "g.go", Line: 3}},
		{File: "internal/transport/transport.go", Analyzer: "lockacross", Reason: "request/response pairing", Pos: token.Position{Filename: "t.go", Line: 9}},
	}
}

func TestInventoryRoundTrip(t *testing.T) {
	dirs := fixtureDirs()
	path := filepath.Join(t.TempDir(), "sharpvet.inventory")
	if err := WriteInventory(path, dirs); err != nil {
		t.Fatal(err)
	}
	diffs, err := DiffInventory(path, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("fresh inventory should diff clean, got %v", diffs)
	}
}

func TestInventoryDetectsDrift(t *testing.T) {
	dirs := fixtureDirs()
	path := filepath.Join(t.TempDir(), "sharpvet.inventory")
	if err := WriteInventory(path, dirs); err != nil {
		t.Fatal(err)
	}

	// A new, unrecorded directive in the tree.
	grown := append(fixtureDirs(), &Directive{File: "internal/node/node.go", Analyzer: "errdrop", Reason: "new one"})
	diffs, err := DiffInventory(path, grown)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !strings.Contains(diffs[0], "in tree but not recorded") {
		t.Fatalf("want one in-tree-only drift, got %v", diffs)
	}

	// A recorded suppression whose directive was deleted from the tree.
	diffs, err = DiffInventory(path, dirs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !strings.Contains(diffs[0], "recorded but not in tree") {
		t.Fatalf("want one recorded-only drift, got %v", diffs)
	}
}

func TestInventoryMissingFileReportsEveryDirective(t *testing.T) {
	dirs := fixtureDirs()
	diffs, err := DiffInventory(filepath.Join(t.TempDir(), "absent"), dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != len(dirs) {
		t.Fatalf("missing inventory should report every directive, got %v", diffs)
	}
}

func TestParseInventoryRejectsMalformedLine(t *testing.T) {
	if _, err := ParseInventory("a.go\tonly-one-tab\n"); err == nil {
		t.Fatal("malformed line should not parse")
	}
}
