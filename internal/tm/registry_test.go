package tm

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
)

// fakeEngine is a minimal Engine for registry tests; the real engines
// register themselves from their own packages.
type fakeEngine struct {
	name string
	opts EngineOptions
	st   Stats
}

func (f *fakeEngine) Begin(*sched.Thread) Txn                              { return nil }
func (f *fakeEngine) Name() string                                         { return f.name }
func (f *fakeEngine) Stats() *Stats                                        { return &f.st }
func (f *fakeEngine) Promote(string)                                       {}
func (f *fakeEngine) NonTxRead(mem.Addr) uint64                            { return 0 }
func (f *fakeEngine) NonTxWrite(mem.Addr, uint64)                          {}
func (f *fakeEngine) NonTxScan(mem.Addr, mem.Addr, func(mem.Addr, uint64)) {}
func (f *fakeEngine) SetTracer(Tracer)                                     {}

func TestRegistryRoundTrip(t *testing.T) {
	Register("Fake-A", func(o EngineOptions) Engine { return &fakeEngine{name: "Fake-A", opts: o} })

	for _, name := range []string{"Fake-A", "fake-a", "FAKE-A"} {
		e, err := NewEngine(name, EngineOptions{WordGranularity: true})
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		fe := e.(*fakeEngine)
		if fe.name != "Fake-A" || !fe.opts.WordGranularity {
			t.Fatalf("factory not invoked with options: %+v", fe)
		}
	}

	// Fresh instance per call: the registry must never cache engines.
	a, _ := NewEngine("Fake-A", EngineOptions{})
	b, _ := NewEngine("Fake-A", EngineOptions{})
	if a == b {
		t.Fatal("NewEngine returned a shared instance; cells must be shared-nothing")
	}
}

func TestRegistryUnknownEngine(t *testing.T) {
	Register("Fake-B", func(o EngineOptions) Engine { return &fakeEngine{name: "Fake-B"} })
	_, err := NewEngine("nope", EngineOptions{})
	if err == nil {
		t.Fatal("unknown engine must error")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "Fake-B") {
		t.Fatalf("error must echo the bad name and list registered engines: %v", err)
	}
}

func TestRegistryRejectsDuplicatesAndNil(t *testing.T) {
	Register("Fake-C", func(EngineOptions) Engine { return &fakeEngine{name: "Fake-C"} })
	mustPanic(t, "duplicate", func() {
		Register("fake-c", func(EngineOptions) Engine { return &fakeEngine{} })
	})
	mustPanic(t, "nil factory", func() { Register("Fake-D", nil) })
}

func TestEnginesSorted(t *testing.T) {
	Register("Fake-Z", func(EngineOptions) Engine { return &fakeEngine{name: "Fake-Z"} })
	Register("Fake-M", func(EngineOptions) Engine { return &fakeEngine{name: "Fake-M"} })
	names := Engines()
	zi, mi := -1, -1
	for i, n := range names {
		if n == "Fake-Z" {
			zi = i
		}
		if n == "Fake-M" {
			mi = i
		}
	}
	if zi < 0 || mi < 0 || mi > zi {
		t.Fatalf("Engines() = %v: want Fake-M before Fake-Z", names)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s must panic", what)
		}
	}()
	f()
}
