package oltp_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/oltp"
)

// tierTheta returns a tier workload's base name and skew.
func tierTheta(t *testing.T, w oltp.Workload) (string, float64) {
	t.Helper()
	switch w := w.(type) {
	case *oltp.KV:
		return "kv", w.Theta
	case *oltp.Ledger:
		return "ledger", w.Theta
	}
	t.Fatalf("ByName returned a %T", w)
	return "", 0
}

// FuzzByName checks the tier-name surface never panics and that every
// accepted name round-trips: its canonical Name() parses back to the same
// base and the same theta bits, so a cell addressed by that name
// simulates exactly the skew the user asked for. The seed corpus is in
// testdata/fuzz/FuzzByName.
func FuzzByName(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string) {
		mk, isOLTP, err := oltp.ByName(name)
		if !isOLTP || err != nil {
			if mk != nil {
				t.Fatalf("ByName(%q) returned a factory with isOLTP=%v err=%v", name, isOLTP, err)
			}
			return
		}
		base, theta := tierTheta(t, mk())
		if want, _, _ := strings.Cut(name, "@"); !strings.EqualFold(base, want) {
			t.Fatalf("ByName(%q) built a %s workload", name, base)
		}
		canon := mk().Name()
		again, isOLTP, err := oltp.ByName(canon)
		if !isOLTP || err != nil {
			t.Fatalf("canonical name %q of %q does not re-parse: isOLTP=%v err=%v", canon, name, isOLTP, err)
		}
		base2, theta2 := tierTheta(t, again())
		if base2 != base || math.Float64bits(theta2) != math.Float64bits(theta) {
			t.Fatalf("%q -> %q re-parses as %s@%v, want %s@%v", name, canon, base2, theta2, base, theta)
		}
		if again().Name() != canon {
			t.Fatalf("canonical name %q is not a fixed point: %q", canon, again().Name())
		}
	})
}
