package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// broadcastPair drives a System and an unfiltered oracle machine side by
// side: the oracle's cores are reference SlowHierarchies, created on first
// use exactly when the System creates its own, and its commits invalidate
// every other created core with the full fused Invalidate — the publish
// the presence filters, the shared-partition rule and the fallback for
// untracked cores replace.
type broadcastPair struct {
	sys  *System
	ssh  *SlowShared
	slow []*SlowHierarchy
}

func newBroadcastPair(cfg Config, referenceStore bool) *broadcastPair {
	return &broadcastPair{sys: NewSystem(cfg, referenceStore), ssh: NewSlowShared(cfg)}
}

// core returns both sides' hierarchy of core id, creating them together.
func (p *broadcastPair) core(id int) (*Hierarchy, *SlowHierarchy) {
	for id >= len(p.slow) {
		p.slow = append(p.slow, nil)
	}
	if p.slow[id] == nil {
		p.slow[id] = NewSlowHierarchy(p.sys.cfg, p.ssh)
	}
	return p.sys.Core(id), p.slow[id]
}

// step applies one random operation to both sides and fails on any
// diverging latency. versioned selects an SI-TM stream (versioned
// accesses, PublishVersioned); otherwise the stream is a 2PL/SONTM one
// (plain accesses, Publish), on which the data-only publish is exact.
func (p *broadcastPair) step(t *testing.T, rng *rand.Rand, cores, lines int, versioned bool) {
	t.Helper()
	id := rng.Intn(cores)
	f, s := p.core(id)
	// Lines 1..7 share version-list line 0, whose translation-cache
	// lookups take the empty-way quirk; line 0 takes it in every level.
	line := mem.Line(rng.Intn(lines) + 1)
	if rng.Intn(64) == 0 {
		line = 0
	}
	var got, want uint64
	switch op := rng.Intn(10); {
	case op < 3:
		got, want = f.Access(line), s.Access(line)
	case op < 5 && versioned:
		got, want = f.AccessVersioned(line), s.AccessVersioned(line)
	case op < 7:
		// The batched path: a certified private hit, else the full
		// access the engine then takes.
		lat, ok := f.AccessPrivate(line)
		switch {
		case ok:
			got = lat
		case versioned:
			got = f.AccessVersioned(line)
		default:
			got = f.Access(line)
		}
		if versioned {
			want = s.AccessVersioned(line)
		} else {
			want = s.Access(line)
		}
	default:
		// Commit: the committer writes the line back, then publishes.
		got, want = f.Access(line), s.Access(line)
		if versioned {
			p.sys.PublishVersioned(id, line)
		} else {
			p.sys.Publish(id, line)
		}
		for other, o := range p.slow {
			if o != nil && other != id {
				o.Invalidate(line)
			}
		}
	}
	if got != want {
		t.Fatalf("core %d line %d: latency %d, broadcast oracle %d", id, line, got, want)
	}
}

// TestPublishMatchesBroadcast pins the System's presence-filtered
// publishes to an unfiltered per-core broadcast: random access, versioned
// access and commit streams must charge identical latencies and end with
// identical statistics. The core counts cover a solo machine (whose
// versioned publish must leave the shared partition alone), two cores
// created lazily mid-stream, a filtered machine, and 65 and 70 cores,
// whose IDs from 64 on take the broadcast fallback — including as the
// committer.
func TestPublishMatchesBroadcast(t *testing.T) {
	small := diffConfigs()[1].cfg
	ref := small
	ref.Reference = true
	configs := []struct {
		name     string
		cfg      Config
		refStore bool
		lines    int
	}{
		{"table1", DefaultConfig(), false, 192},
		{"small", small, false, 192},
		{"small-dense-store", small, true, 192},
		{"no-xlate", diffConfigs()[2].cfg, false, 192},
		{"reference", ref, false, 192},
	}
	for ci, c := range configs {
		for _, cores := range []int{1, 2, 8, 65, 70} {
			for _, versioned := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%d-cores/versioned=%t", c.name, cores, versioned), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*ci + 2*cores + boolInt(versioned))))
					p := newBroadcastPair(c.cfg, c.refStore)
					for i := 0; i < 4000; i++ {
						p.step(t, rng, cores, c.lines, versioned)
					}
					var want Stats
					for id, s := range p.slow {
						if s == nil {
							continue
						}
						if got := p.sys.cores[id].Stats; got != s.Stats {
							t.Fatalf("core %d stats %+v, broadcast oracle %+v", id, got, s.Stats)
						}
						want.L1Hits += s.Stats.L1Hits
						want.L2Hits += s.Stats.L2Hits
						want.L3Hits += s.Stats.L3Hits
						want.MemAccesses += s.Stats.MemAccesses
						want.XlateHits += s.Stats.XlateHits
						want.XlateMisses += s.Stats.XlateMisses
						want.Accesses += s.Stats.Accesses
					}
					if got := p.sys.Stats(); got != want {
						t.Fatalf("System.Stats %+v, broadcast oracle %+v", got, want)
					}
					p.sys.Release()
				})
			}
		}
	}
}
