package harness

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/micro"
)

func TestScaleOptionGrowsWorkloads(t *testing.T) {
	o := Options{Seeds: []uint64{1}, CellConfig: exp.CellConfig{Scale: 2}}
	base := Run(SITM, func() Workload { return micro.NewList() }, 2, Options{Seeds: []uint64{1}})
	scaled := Run(SITM, func() Workload { return micro.NewList() }, 2, o)
	if scaled.Commits <= base.Commits {
		t.Fatalf("scaled commits %v not above base %v", scaled.Commits, base.Commits)
	}
}

func TestEveryWorkloadIsScalable(t *testing.T) {
	for _, f := range Registry() {
		w := f()
		if _, ok := w.(Scalable); !ok {
			t.Errorf("%s does not implement Scalable", w.Name())
		}
	}
}
