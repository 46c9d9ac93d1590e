package mc

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/sched"
	"repro/internal/tm"
)

// HistoryVerdict is one distinct history of a litmus exploration with its
// axiom-check verdict and the number of schedules that produced it.
type HistoryVerdict struct {
	Key   string
	Count int
	Hist  *History
	Class Class
}

// Result is the outcome of exploring one (litmus program, engine, option)
// cell.
type Result struct {
	Program  Program
	Engine   string
	Explored ExploreStats
	// Histories holds the distinct histories in sorted key order.
	Histories []HistoryVerdict
	// Admitted is the union anomaly fingerprint over all histories.
	Admitted Anomalies
	// AllSI, AllSnapshotReads and AllSerializable aggregate the verdicts.
	AllSI, AllSnapshotReads, AllSerializable bool
}

// HistoryKeys returns the sorted distinct history keys — the history
// *set*, which the Reference* option variants must reproduce exactly.
func (r *Result) HistoryKeys() []string {
	keys := make([]string, len(r.Histories))
	for i := range r.Histories {
		keys[i] = r.Histories[i].Key
	}
	return keys
}

// releaser is the optional engine surface returning pooled cache arrays
// to the scratch between schedules (same seam as internal/exp).
type releaser interface{ ReleaseCaches() }

// RunLitmus explores the schedule space of prog on the named engine and
// classifies every distinct history. A fresh engine and machine are built
// per schedule (sharing only the cache scratch), so schedules are fully
// independent; the explorer's replay check would catch any state leak as
// a determinism divergence.
func RunLitmus(prog Program, engine string, eopts tm.EngineOptions, opts Options) (*Result, error) {
	if _, err := tm.NewEngine(engine, eopts); err != nil {
		return nil, err
	}
	if eopts.CacheScratch == nil {
		eopts.CacheScratch = cache.NewScratch()
	}
	threads := len(prog.Threads)

	type entry struct {
		hist  *History
		count int
	}
	byKey := make(map[string]*entry)
	var h History

	res := &Result{Program: prog, Engine: engine}
	res.Explored = Explore(opts, func(c sched.Chooser) {
		e, err := tm.NewEngine(engine, eopts)
		if err != nil {
			panic(fmt.Sprintf("mc: %v", err))
		}
		for v := range prog.Init {
			e.NonTxWrite(varAddr(v), prog.Init[v])
		}
		h.Ops = h.Ops[:0]
		s := sched.New(threads, 1)
		s.RunChoose(func(th *sched.Thread) {
			id := th.ID()
			h.append(Op{Txn: id, Kind: OpBegin})
			err := tm.RunOnce(e, th, func(tx tm.Txn) error {
				prog.Threads[id](&Tx{id: id, txn: tx, h: &h})
				return nil
			})
			if err == nil {
				h.append(Op{Txn: id, Kind: OpCommit})
			} else {
				h.append(Op{Txn: id, Kind: OpAbort})
			}
		}, c)
		key := h.Key()
		if ent := byKey[key]; ent != nil {
			ent.count++
		} else {
			byKey[key] = &entry{hist: h.Clone(), count: 1}
		}
		if r, ok := e.(releaser); ok {
			r.ReleaseCaches()
		}
	})

	var keys []string
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res.AllSI, res.AllSnapshotReads, res.AllSerializable = true, true, true
	for _, k := range keys {
		ent := byKey[k]
		checkWriteValues(prog, ent.hist)
		cl := Classify(ent.hist, prog.Init, threads)
		res.Histories = append(res.Histories, HistoryVerdict{
			Key: k, Count: ent.count, Hist: ent.hist, Class: cl,
		})
		res.Admitted = res.Admitted.Union(cl.Anomalies())
		res.AllSI = res.AllSI && cl.SI
		res.AllSnapshotReads = res.AllSnapshotReads && cl.SnapshotReads
		res.AllSerializable = res.AllSerializable && cl.Serializable
	}
	return res, nil
}

// checkWriteValues enforces the litmus value discipline the value-
// resolved axiom checks rely on: within one history, the committed final
// writes to a variable and its initial value must be pairwise distinct.
// A collision is a bug in the litmus program, not in an engine.
func checkWriteValues(prog Program, h *History) {
	vs := views(h, len(prog.Threads))
	for v := range prog.Init {
		vals := []uint64{prog.Init[v]}
		for i := range vs {
			if !vs[i].committed {
				continue
			}
			if val, ok := vs[i].wrote(v); ok {
				for _, seen := range vals {
					if seen == val {
						panic(fmt.Sprintf("mc: litmus %q writes duplicate value %d to %s — reads-from would be ambiguous",
							prog.Name, val, prog.VarNames[v]))
					}
				}
				vals = append(vals, val)
			}
		}
	}
}

// Family is an engine's behaviourally derived isolation family.
type Family int

const (
	// FamilySerializable engines never admit a non-serializable history.
	FamilySerializable Family = iota
	// FamilySI engines admit SI-permitted anomalies (write skew).
	FamilySI
)

func (f Family) String() string {
	if f == FamilySI {
		return "snapshot-isolation"
	}
	return "serializable"
}

// EngineFamily classifies an engine by exhaustively exploring the
// write-skew litmus: an engine that admits the anomaly somewhere in that
// schedule space runs under snapshot isolation. sitm-check uses it to
// pick each engine's contract, and internal/tmtest's registry sweep to
// pick each engine's isolation suite.
func EngineFamily(engine string, eopts tm.EngineOptions) (Family, error) {
	prog, err := ProgramByName("write-skew")
	if err != nil {
		return 0, err
	}
	r, err := RunLitmus(prog, engine, eopts, Options{})
	if err != nil {
		return 0, err
	}
	if r.Admitted.WriteSkew {
		return FamilySI, nil
	}
	return FamilySerializable, nil
}

// Violations checks the result against the acceptance expectations for
// an engine of the given family and returns human-readable failures —
// empty means the cell passed.
//
// Unconditionally, for every engine: every history's committed
// transactions must satisfy the SI axioms (snapshot reads and
// first-committer-wins), and the lost-update, non-snapshot-read and
// long-fork anomalies must never appear (long fork because these engines
// implement strong SI — see Program.SIAdmits). Serializable engines must
// additionally admit only serializable histories; their aborted attempts
// may zombie-read (eager 2PL dooms readers lazily and writes in place,
// so a doomed attempt can observe the dooming writer's state — opacity
// is exactly what the paper's MVM adds). SI engines must be opaque, and
// must admit exactly the program's expected anomalies when exploration
// was exhaustive — and no unexpected ones when it was bounded.
func (r *Result) Violations(fam Family) []string {
	var out []string
	for i := range r.Histories {
		hv := &r.Histories[i]
		switch {
		case !hv.Class.SnapshotReads:
			out = append(out, fmt.Sprintf("history %q: committed reads not explainable by any snapshot", hv.Key))
		case !hv.Class.SI:
			out = append(out, fmt.Sprintf("history %q: violates first-committer-wins", hv.Key))
		case fam == FamilySI && !hv.Class.Opaque:
			out = append(out, fmt.Sprintf("history %q: aborted attempt observed a non-snapshot state (MVM opacity)", hv.Key))
		}
		if fam == FamilySerializable && !hv.Class.Serializable {
			out = append(out, fmt.Sprintf("history %q: serializable engine admitted a non-serializable history", hv.Key))
		}
	}
	if r.Admitted.LostUpdate {
		out = append(out, "lost update admitted")
	}
	if r.Admitted.LongFork {
		out = append(out, "long fork admitted (strong SI must order all snapshots along one commit order)")
	}
	if fam == FamilySI {
		want := r.Program.SIAdmits
		if r.Admitted.WriteSkew && !want.WriteSkew {
			out = append(out, "write skew admitted where the litmus forbids it")
		}
		if r.Explored.Exhausted && want.WriteSkew && !r.Admitted.WriteSkew {
			out = append(out, "expected write skew not admitted despite exhaustive exploration")
		}
	}
	return out
}
