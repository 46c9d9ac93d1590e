package harness

import (
	"bytes"
	"testing"

	"repro/internal/exp"
)

// TestRenderSectionsSimulatesEachCellOnce renders five sections in one
// call and checks that every distinct (cell, configuration) of their
// plans is simulated exactly once — Figure 1's and Figure 7's cells are
// a subset of Figure 8's — and that the bytes are those of rendering each
// section on its own.
func TestRenderSectionsSimulatesEachCellOnce(t *testing.T) {
	names := []string{"figure1", "figure7", "figure8", "table2", "mvm"}
	o := Options{Seeds: []uint64{1}, Only: []string{"List"}}
	type key struct {
		cell exp.Cell
		cfg  exp.CellConfig
	}
	distinct := make(map[key]bool)
	planned := 0
	for _, name := range names {
		fp, err := PlanFigure(name, 4, o)
		if err != nil {
			t.Fatal(err)
		}
		planned += len(fp.Plan)
		for _, c := range fp.Plan {
			distinct[key{c, fp.Config}] = true
		}
	}
	if len(distinct) >= planned {
		t.Fatalf("plans share no cells (%d distinct of %d); the test has no teeth", len(distinct), planned)
	}

	var computed int
	multi := o
	multi.Progress = func(p exp.Progress) {
		if !p.Cached {
			computed++
		}
	}
	secs, err := RenderSections(names, 4, multi)
	if err != nil {
		t.Fatal(err)
	}
	if computed != len(distinct) {
		t.Fatalf("simulated %d cells, want %d distinct (of %d planned)", computed, len(distinct), planned)
	}

	var got, want bytes.Buffer
	for i, name := range names {
		if secs[i].Name != name {
			t.Fatalf("section %d is %q, want %q", i, secs[i].Name, name)
		}
		got.Write(secs[i].Text)
		text, err := RenderFigureText(name, 4, o)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(text)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("one-call render differs from separate renders:\none call:\n%s\nseparate:\n%s", got.Bytes(), want.Bytes())
	}
}
