// Command skewcheck runs the write-skew detection tool of §5.1 over the
// built-in transactional workloads: it traces a run under SI-TM, builds
// the read-write dependency graph, reports candidate cycles with their
// source sites, and (with -repair) applies read promotion automatically
// and re-runs to confirm the anomaly is gone.
//
//	skewcheck -workload list        the Listing 2 linked list anomaly
//	skewcheck -workload dlist       the doubly linked list anomaly
//	skewcheck -workload rbtree      the red-black tree anomalies
//	skewcheck -workload bank        the Listing 1 withdraw anomaly
//
// Engines are constructed through the tm registry; -engine selects any
// registered engine (default SI-TM, where the anomalies reproduce).
// Under a serializable engine (2PL, SONTM, SSI-TM) the same schedules
// must come back clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/sched"
	"repro/internal/skew"
	"repro/internal/tm"
	"repro/internal/txlib"

	// All engines self-register with the tm engine registry.
	_ "repro/internal/core"
	_ "repro/internal/sontm"
	_ "repro/internal/twopl"
)

func main() {
	var (
		engine   = flag.String("engine", "SI-TM", "engine to trace: "+strings.Join(tm.Engines(), ", "))
		workload = flag.String("workload", "list", "workload to analyse: list, dlist, rbtree or bank")
		threads  = flag.Int("threads", 4, "logical threads")
		txns     = flag.Int("txns", 40, "transactions per thread")
		seed     = flag.Uint64("seed", 7, "simulation seed")
		repair   = flag.Bool("repair", false, "apply read promotion and re-run to verify")
		traceOut = flag.String("trace", "", "write the committed-transaction trace (JSON lines) to this file")
		coverage = flag.Bool("coverage", false, "report schedule coverage of concurrent site pairs")
	)
	flag.Parse()

	// Validate the flags up front, before any tracing runs: the registry
	// error lists every registered engine, like WorkloadByName does for
	// workloads.
	if _, err := tm.NewEngine(*engine, tm.EngineOptions{}); err != nil {
		fmt.Fprintf(os.Stderr, "skewcheck: %v\n", err)
		os.Exit(2)
	}
	if err := checkCounts(*threads, *txns); err != nil {
		fmt.Fprintf(os.Stderr, "skewcheck: %v\n", err)
		os.Exit(2)
	}

	var firstRec *skew.Recorder
	run := func(promote *skew.Report) (*skew.Report, string) {
		e, err := tm.NewEngine(*engine, tm.EngineOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "skewcheck: %v\n", err)
			os.Exit(1)
		}
		if promote != nil {
			promote.Promote(e)
		}
		rec := skew.NewRecorder()
		e.SetTracer(rec)
		m := txlib.NewMem(e)
		body, check := buildWorkload(*workload, m, *txns)
		sched.New(*threads, *seed).Run(body)
		if firstRec == nil {
			firstRec = rec
		}
		return rec.Analyze(), check()
	}

	rep, consistency := run(nil)
	fmt.Print(rep)
	if *coverage {
		cov := firstRec.MeasureCoverage()
		fmt.Printf("schedule coverage: %d/%d concurrent site pairs exercised (%.0f%%)\n",
			cov.PairsCovered, cov.PairsPossible, cov.Pct())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skewcheck: %v\n", err)
			os.Exit(1)
		}
		if err := firstRec.WriteTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "skewcheck: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "skewcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events)\n", *traceOut, firstRec.Events())
	}
	if consistency != "" {
		fmt.Printf("post-run consistency check: VIOLATED (%s)\n", consistency)
	} else {
		fmt.Println("post-run consistency check: ok (this schedule)")
	}

	if *repair && rep.HasSkew() {
		fmt.Println("\napplying read promotion and re-running ...")
		rep2, consistency2 := run(rep)
		if consistency2 != "" {
			fmt.Printf("repaired run consistency: STILL VIOLATED (%s)\n", consistency2)
			os.Exit(1)
		}
		fmt.Println("repaired run consistency: ok")
		if rep2.HasSkew() {
			fmt.Println("note: residual dependency cycles remain (promoted reads now abort them at runtime)")
		}
	}
}

// checkCounts rejects a thread count the simulator cannot run and a
// transaction count that would trace nothing.
func checkCounts(threads, txns int) error {
	if threads < 1 || threads > sched.MaxThreads {
		return fmt.Errorf("bad -threads %d: thread count must be in 1..%d", threads, sched.MaxThreads)
	}
	if txns < 1 {
		return fmt.Errorf("bad -txns %d: transactions per thread must be at least 1", txns)
	}
	return nil
}

// buildWorkload returns the per-thread body and a post-run consistency
// check for the named workload.
func buildWorkload(name string, m *txlib.Mem, txns int) (func(*sched.Thread), func() string) {
	e := m.E
	switch name {
	case "list":
		l := txlib.NewList(m)
		l.UnsafeRemove = true
		var keys []uint64
		for i := uint64(1); i <= 64; i++ {
			keys = append(keys, i*2)
		}
		l.SeedNonTx(keys)
		return func(th *sched.Thread) {
				r := th.Rand()
				for i := 0; i < txns; i++ {
					k := uint64(1 + r.Intn(128))
					_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
						if r.Intn(2) == 0 {
							l.Insert(tx, k, k)
						} else {
							l.Remove(tx, k)
						}
						return nil
					})
				}
			}, func() string {
				ks := l.KeysNonTx()
				for i := 1; i < len(ks); i++ {
					if ks[i] <= ks[i-1] {
						return fmt.Sprintf("list unsorted at %d: %v", i, ks[:i+1])
					}
				}
				return ""
			}
	case "dlist":
		l := txlib.NewDList(m)
		l.UnsafeRemove = true
		var keys []uint64
		for i := uint64(1); i <= 64; i++ {
			keys = append(keys, i*2)
		}
		l.SeedNonTx(keys)
		return func(th *sched.Thread) {
			r := th.Rand()
			for i := 0; i < txns; i++ {
				k := uint64(1 + r.Intn(128))
				_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					if r.Intn(2) == 0 {
						l.Insert(tx, k, k)
					} else {
						l.Remove(tx, k)
					}
					return nil
				})
			}
		}, l.CheckConsistent
	case "rbtree":
		tr := txlib.NewRBTree(m) // deliberately unpromoted
		var keys []uint64
		for i := uint64(1); i <= 64; i++ {
			keys = append(keys, i*2)
		}
		tr.SeedNonTx(keys)
		return func(th *sched.Thread) {
				r := th.Rand()
				for i := 0; i < txns; i++ {
					k := uint64(1 + r.Intn(128))
					_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
						switch r.Intn(3) {
						case 0:
							tr.Insert(tx, k, k)
						case 1:
							tr.Delete(tx, k)
						default:
							tr.Contains(tx, k)
						}
						return nil
					})
				}
			}, func() string {
				var msg string
				sched.New(1, 1).Run(func(th *sched.Thread) {
					_ = tm.Atomic(e, th, tm.BackoffConfig{}, func(tx tm.Txn) error {
						msg = tr.CheckInvariants(tx)
						return nil
					})
				})
				return msg
			}
	case "bank":
		checking := m.A.AllocLines(1)
		saving := m.A.AllocLines(1)
		e.NonTxWrite(checking, 1000)
		e.NonTxWrite(saving, 1000)
		return func(th *sched.Thread) {
				r := th.Rand()
				for i := 0; i < txns; i++ {
					fromChecking := r.Intn(2) == 0
					_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
						tx.Site("bank.check")
						if tx.Read(checking)+tx.Read(saving) >= 100 {
							tx.Site("bank.withdraw")
							if fromChecking {
								tx.Write(checking, tx.Read(checking)-100)
							} else {
								tx.Write(saving, tx.Read(saving)-100)
							}
						}
						return nil
					})
				}
			}, func() string {
				// Listing 1's invariant is the total balance: the guard
				// permits one account to go negative serially, but only
				// write skew can take the sum below zero.
				sum := int64(e.NonTxRead(checking)) + int64(e.NonTxRead(saving))
				if sum < 0 {
					return fmt.Sprintf("total balance went negative (%d)", sum)
				}
				return ""
			}
	default:
		fmt.Fprintf(os.Stderr, "skewcheck: unknown workload %q (valid: list, dlist, rbtree, bank)\n", name)
		os.Exit(2)
		return nil, nil
	}
}
