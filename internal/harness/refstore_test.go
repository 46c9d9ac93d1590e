package harness

import (
	"bytes"
	"testing"
)

// TestOLTPFigureByteIdenticalFastVsSlowStore repeats the store leg of
// TestFiguresByteIdenticalFastVsSlow on the serving tier itself — the
// workload the paged memory tier (internal/mem.Paged) exists for — and
// covers the commit-latency quantile columns too.
func TestOLTPFigureByteIdenticalFastVsSlowStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two serving-tier sweeps")
	}
	render := func(o Options) []byte {
		var buf bytes.Buffer
		FigureOLTP(&buf, o)
		return buf.Bytes()
	}
	o := Options{Seeds: []uint64{1}, Only: []string{"kv@0.50"}}
	fast := render(o)
	o.RefStore = true
	slow := render(o)
	if !bytes.Equal(fast, slow) {
		t.Fatalf("figure-oltp output diverges between store backings:\n--- fast ---\n%s\n--- slow ---\n%s", fast, slow)
	}
}
