package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 10, Column: 2}
	cases := []struct {
		text     string
		analyzer string
		reason   string
		wantErr  string
	}{
		{text: "//sharp:orderinvariant bloom union commutes", analyzer: "maporder", reason: "bloom union commutes"},
		{text: "//sharp:allow lockacross request lock held across the round trip", analyzer: "lockacross", reason: "request lock held across the round trip"},
		{text: "//sharp:orderinvariant", wantErr: "needs a reason"},
		{text: "//sharp:orderinvariant   ", wantErr: "needs a reason"},
		{text: "//sharp:allow lockacross", wantErr: "needs an analyzer name and a reason"},
		{text: "//sharp:allow", wantErr: "needs an analyzer name and a reason"},
		{text: "//sharp:allow nosuch because reasons", wantErr: "unknown analyzer"},
		{text: "//sharp:ignore everything", wantErr: "unknown //sharp: directive"},
	}
	for _, c := range cases {
		d, err := parseDirective(c.text, pos)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseDirective(%q) error = %v, want containing %q", c.text, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDirective(%q): %v", c.text, err)
			continue
		}
		if d.Analyzer != c.analyzer || d.Reason != c.reason {
			t.Errorf("parseDirective(%q) = {%s %q}, want {%s %q}", c.text, d.Analyzer, d.Reason, c.analyzer, c.reason)
		}
	}
}

func TestDirectiveCovers(t *testing.T) {
	d := &Directive{Analyzer: "maporder", Pos: token.Position{Filename: "a.go", Line: 5}}
	at := func(file string, line int) token.Position { return token.Position{Filename: file, Line: line} }
	if !d.covers("maporder", at("a.go", 5)) {
		t.Error("same line should be covered")
	}
	if !d.covers("maporder", at("a.go", 6)) {
		t.Error("line directly beneath should be covered")
	}
	if d.covers("maporder", at("a.go", 7)) {
		t.Error("two lines down must not be covered")
	}
	if d.covers("maporder", at("b.go", 5)) {
		t.Error("other file must not be covered")
	}
	if d.covers("errdrop", at("a.go", 5)) {
		t.Error("other analyzer must not be covered")
	}
}
