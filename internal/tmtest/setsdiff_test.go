package tmtest_test

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// TestAccessSetDifferential pins the signature-backed access tracking
// (internal/aset) at the engine level: for every registered engine, across
// thread counts and seeds, the engines' aset.LineMap tables in their
// open-addressing mode and in their map-backed reference mode (selected
// by EngineOptions.ReferenceSets) produce bit-identical engine
// statistics, makespans, final memory state and cache statistics. Any
// divergence means the open addressing or a Bloom signature changed a
// conflict verdict, a write-back value or a charged cost, which would
// silently shift every figure in the evaluation. Both legs run the same
// engine code, so engine-logic faults are left to the conformance,
// quiescence-audit and model-checking tests.
// The per-structure property tests live in internal/aset and the
// report-level gate in internal/harness; this sweep proves the equivalence
// survives real engine access patterns, including commit-time broadcast
// probes into concurrent transactions' sets. The 72-thread cells put
// live transactions past slot 63, so 2PL's and SONTM's reader bitmaps
// use their second word.
func TestAccessSetDifferential(t *testing.T) {
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 2, 4, 8, 72} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					fast := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed, (*sched.Sim).Run)
					slow := runEngineWorkload(t, name, tm.EngineOptions{ReferenceSets: true}, threads, seed, (*sched.Sim).Run)
					if fast != slow {
						t.Errorf("fast sets %+v\nreference sets %+v", fast, slow)
					}
				})
			}
		}
	}
}

// accessSetAuditor is implemented by engines that can verify no access-set
// state outlives its transaction (empty slabs and reader tables at
// quiescence).
type accessSetAuditor interface {
	AuditAccessSets() error
}

// TestAccessSetQuiescence audits the access-set lifecycle for every
// registered engine: after a workload drains, no live read/write-set
// entries and no live reader-table records may remain. A leak here means a
// recycled transaction could observe a predecessor's accesses — the class
// of bug the epoch stamps exist to prevent — or that set memory grows
// without bound across transactions.
func TestAccessSetQuiescence(t *testing.T) {
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					e, err := tm.NewEngine(name, tm.EngineOptions{})
					if err != nil {
						t.Fatalf("constructing %s: %v", name, err)
					}
					auditor, ok := e.(accessSetAuditor)
					if !ok {
						t.Fatalf("%s does not implement AuditAccessSets", name)
					}
					const accounts = 6
					addr := func(i int) mem.Addr { return mem.Addr((i + 1) * mem.LineBytes) }
					for i := 0; i < accounts; i++ {
						e.NonTxWrite(addr(i), 100)
					}
					s := sched.New(threads, seed)
					s.Run(func(th *sched.Thread) {
						r := th.Rand()
						for i := 0; i < 30; i++ {
							_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
								a, b := addr(r.Intn(accounts)), addr(r.Intn(accounts))
								v := tx.Read(a)
								if r.Uint64()%4 == 0 {
									return nil // read-only
								}
								tx.Write(b, v+1)
								return nil
							})
						}
					})
					if err := auditor.AuditAccessSets(); err != nil {
						t.Errorf("%s leaked access-set state: %v", name, err)
					}
				})
			}
		}
	}
}

// TestQuiescenceAfterPinnedSnapshots audits every registered engine after
// a cell built to fill version lists: one thread commits increments to a
// hot line while the others run long read-only transactions that each
// pin a snapshot of it, so on SI-TM and SSI-TM the hot line's version
// list reaches the bound and the writer takes capacity aborts. The
// readers outlast the writer, so the writer's last installs happen with
// snapshots pinned, and AuditAccessSets then checks the version lists'
// order and bound as well as the access sets.
func TestQuiescenceAfterPinnedSnapshots(t *testing.T) {
	for _, name := range tm.Engines() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/s%d", name, seed), func(t *testing.T) {
				e, err := tm.NewEngine(name, tm.EngineOptions{})
				if err != nil {
					t.Fatalf("constructing %s: %v", name, err)
				}
				hot := mem.Addr(mem.LineBytes)
				cold := func(i int) mem.Addr { return mem.Addr((i + 2) * mem.LineBytes) }
				sched.New(8, seed).Run(func(th *sched.Thread) {
					if th.ID() == 0 {
						for i := 0; i < 20; i++ {
							th.LocalTick(100)
							_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
								tx.Write(hot, tx.Read(hot)+1)
								return nil
							})
						}
						return
					}
					for i := 0; i < 12; i++ {
						th.LocalTick(uint64(th.ID()) * 97)
						_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
							tx.Read(hot)
							for j := 0; j < 64; j++ {
								tx.Read(cold(j))
							}
							return nil
						})
					}
				})
				if err := e.(accessSetAuditor).AuditAccessSets(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
