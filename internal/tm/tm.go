// Package tm defines the transactional memory programming interface shared
// by the SI-TM engine and the 2PL and SONTM baselines, the abort taxonomy
// the paper's evaluation distinguishes (Figure 1), per-engine statistics,
// the software retry loop with exponential backoff (§6.1, §6.4), and the
// trace hooks consumed by the write-skew detection tool (§5.1).
package tm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sched"
)

// AbortKind classifies why a transaction aborted, following the paper's
// taxonomy.
type AbortKind int

const (
	// AbortReadWrite is a read-write conflict: only 2PL and SONTM
	// abort on these; under SI they are invisible (Figure 1).
	AbortReadWrite AbortKind = iota
	// AbortWriteWrite is a write-write conflict — the only conflict
	// SI-TM aborts on (§4).
	AbortWriteWrite
	// AbortOrder is a conflict-serializability order violation (SONTM:
	// the transaction's serializability-order-number interval emptied).
	AbortOrder
	// AbortCapacity is a version-buffer overflow: a fifth version under
	// the bounded MVM policy, or a stale read under DropOldest (§3.1).
	AbortCapacity
	// AbortSkew is an abort forced by a promoted read — a read that the
	// write-skew tool inserted into the write set (§5.1) — or by the
	// SSI-TM dangerous-structure rule (§5.2).
	AbortSkew
	// AbortInterrupt is an abort caused by an interrupt or context
	// switch hitting a cache-buffered transaction (§1, §4.3);
	// multiversioned memory makes SI-TM immune to these.
	AbortInterrupt
	// AbortExplicit is a programmatic abort requested by the workload.
	AbortExplicit

	numAbortKinds
)

func (k AbortKind) String() string {
	switch k {
	case AbortReadWrite:
		return "read-write"
	case AbortWriteWrite:
		return "write-write"
	case AbortOrder:
		return "order"
	case AbortCapacity:
		return "capacity"
	case AbortSkew:
		return "skew"
	case AbortInterrupt:
		return "interrupt"
	case AbortExplicit:
		return "explicit"
	}
	return fmt.Sprintf("AbortKind(%d)", int(k))
}

// AbortError reports a transaction abort and its cause.
type AbortError struct {
	Kind AbortKind
	// Line is the conflicting cache line when known.
	Line mem.Line
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("tm: transaction aborted (%s conflict on line %#x)", e.Kind, uint64(e.Line))
}

// Txn is one transaction attempt. Read and Write may abort the attempt
// internally (eager engines doom transactions mid-flight); workloads run
// inside Atomic, which handles the retry. A Txn must finish with exactly
// one Commit or Abort call.
type Txn interface {
	// Read returns the 64-bit word at a under the engine's isolation
	// level.
	Read(a mem.Addr) uint64
	// Write buffers a 64-bit store to a.
	Write(a mem.Addr, v uint64)
	// ReadPromoted is a read that participates in write conflict
	// detection without creating a data version — the read-promotion
	// primitive of §5.1. Engines without promotion treat it as Read.
	ReadPromoted(a mem.Addr) uint64
	// Commit attempts to make the transaction's writes visible. It
	// returns nil on success or an *AbortError.
	Commit() error
	// Abort abandons the attempt and releases engine state.
	Abort()
	// Site labels subsequent operations with a source location for the
	// write-skew tool; it returns the transaction for chaining.
	Site(s string) Txn
	// Fence ends any batched scheduling quantum of the transaction's
	// thread (sched.Thread.Fence), so that the caller's next effect on
	// shared non-transactional state — txlib's bump allocator — happens
	// in simulated order. It is a no-op where the engine never batches.
	Fence()
	// PromiseReads declares that the attempt's next n accesses are
	// reads: the lookahead of a scan that knows its length. While the
	// promised reads are outstanding the thread publishes slack for all
	// of them (sched.Thread.SetSlack), so peers batch past its next read
	// instead of switching to it on every one. Write, Commit or an
	// explicit Abort before the last promised read breaks the promise
	// and panics; a conflict abort drops it. Engines honour it only
	// while horizon batching is on and nothing has been written; it is
	// a no-op everywhere else and never changes a simulated outcome. A
	// promise never lowers an outstanding count.
	PromiseReads(n int)
	// ReserveReads declares that at least n reads follow the current
	// operation before anything that may write: the lookahead of a
	// kernel that knows how many more lookups it will issue. Reads do
	// not spend the reserve; the caller sets it again before each
	// operation and lowers it to 0 before any operation that may write.
	// The thread publishes slack for reserved and promised reads alike,
	// and Write, Commit or an explicit Abort with a reserve outstanding
	// panics as a broken promise does. It is honoured where
	// PromiseReads is.
	ReserveReads(n int)
}

// Engine is a transactional memory implementation: the paper's SI-TM or
// one of the two baselines. Engines are driven by logical threads of the
// deterministic simulator; Begin may stall the thread (commit window,
// backoff) but must eventually return a fresh transaction.
type Engine interface {
	// Begin starts a transaction on the given logical thread.
	Begin(t *sched.Thread) Txn
	// Name identifies the engine in reports ("2PL", "SONTM", "SI-TM").
	Name() string
	// Stats returns the engine's accumulated counters.
	Stats() *Stats
	// Promote marks a site label so that reads issued under it are
	// treated as promoted reads (automatic write-skew repair, §5.1).
	// Engines that cannot promote ignore it.
	Promote(site string)
	// NonTxRead reads a word outside any transaction (newest data).
	NonTxRead(a mem.Addr) uint64
	// NonTxWrite stores a word outside any transaction, in place.
	// Workloads use it for single-threaded initialisation.
	NonTxWrite(a mem.Addr, v uint64)
	// NonTxScan calls f, in ascending address order, for every word in
	// [lo, hi) that may be non-zero, with the value NonTxRead returns;
	// every word it skips reads as zero through NonTxRead. It costs
	// time in proportion to the stored pages the range meets, so
	// workloads use it to verify sparse spans at quiescence.
	NonTxScan(lo, hi mem.Addr, f func(a mem.Addr, v uint64))
	// SetTracer installs a trace observer (nil disables tracing).
	SetTracer(tr Tracer)
}

// Stats aggregates commit/abort counts per engine. Aborts are classified
// by AbortKind so the harness can reproduce Figure 1's read-write versus
// write-write breakdown.
type Stats struct {
	Commits   uint64
	ReadOnly  uint64 // committed transactions with an empty write set
	Aborts    [numAbortKinds]uint64
	Stalls    uint64 // commit-window or token stalls
	BackoffNs uint64 // simulated cycles spent in exponential backoff
	// CommitHist is the commit-latency distribution in simulated cycles:
	// for each Atomic that committed, the cycles from the start of its
	// first attempt to commit success, aborted attempts and backoff
	// included — the serving-systems tail metric (p50/p99/p999) the
	// paper's abort-rate figures never show.
	CommitHist report.Hist
}

// TotalAborts sums aborts over all kinds.
func (s *Stats) TotalAborts() uint64 {
	var n uint64
	for _, a := range s.Aborts {
		n += a
	}
	return n
}

// AbortRate returns aborts per started transaction attempt, in [0, 1].
func (s *Stats) AbortRate() float64 {
	attempts := s.Commits + s.TotalAborts()
	if attempts == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(attempts)
}

// Count records an abort of the given kind.
func (s *Stats) Count(k AbortKind) { s.Aborts[k]++ }

// Reset zeroes all counters (between warm-up and measurement).
func (s *Stats) Reset() { *s = Stats{} }

// abortSignal carries an abort out of Read/Write to the Atomic retry loop
// without forcing an error check on every memory access. It never escapes
// package boundaries: Atomic recovers it.
type abortSignal struct{ err *AbortError }

// SignalAbort unwinds the current transaction attempt with the given
// cause. Engines call it from Read/Write/Commit paths; it must only run
// beneath Atomic.
func SignalAbort(kind AbortKind, line mem.Line) {
	panic(abortSignal{&AbortError{Kind: kind, Line: line}})
}

// BackoffConfig tunes the exponential backoff the eager baselines rely on
// to avoid livelock (§6.4). Delay for the n-th consecutive abort is
// Base << min(n, MaxShift) cycles, jittered uniformly.
type BackoffConfig struct {
	Enabled  bool
	Base     uint64
	MaxShift uint
}

// DefaultBackoff is the tuned configuration used in the evaluation.
func DefaultBackoff() BackoffConfig {
	return BackoffConfig{Enabled: true, Base: 32, MaxShift: 10}
}

// Delay returns the simulated backoff delay after `attempt` consecutive
// aborts (attempt counts from 1).
func (b BackoffConfig) Delay(attempt int, rng *sched.Rand) uint64 {
	if !b.Enabled || attempt <= 0 {
		return 0
	}
	shift := uint(attempt)
	if shift > b.MaxShift {
		shift = b.MaxShift
	}
	window := b.Base << shift
	return window/2 + rng.Uint64()%(window/2+1)
}

// ErrRetry can be returned by an Atomic body to request re-execution
// without counting an engine abort (used by workloads that model
// application-level retry).
var ErrRetry = fmt.Errorf("tm: retry requested")

// Atomic runs body as a transaction on engine, retrying on aborts with the
// engine's backoff policy until it commits. It is the software equivalent
// of the compiler-generated retry loop around TM_BEGIN/TM_COMMIT. The body
// may return an error to abort and propagate the error to the caller
// (after rolling back), or ErrRetry to abort and re-execute.
func Atomic(e Engine, t *sched.Thread, backoff BackoffConfig, body func(Txn) error) error {
	start := t.Cycles()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if d := backoff.Delay(attempt, t.Rand()); d > 0 {
				e.Stats().BackoffNs += d
				// Backoff is pure thread-local waiting; the fence in
				// runAttempt re-synchronises before the next Begin.
				t.LocalTick(d)
			}
		}
		err := runAttempt(e, t, body)
		switch {
		case err == nil:
			e.Stats().CommitHist.Record(t.Cycles() - start)
			return nil
		case err == ErrRetry:
			continue
		default:
			var abort *AbortError
			if as, ok := err.(*AbortError); ok {
				abort = as
			}
			if abort == nil {
				return err // workload error: already rolled back
			}
			// engine abort: retry
		}
	}
}

// RunOnce executes body as a single transaction attempt with no retry:
// the attempt either commits (nil) or returns the *AbortError (or the
// body's own error) after rolling back. The model checker (internal/mc)
// runs litmus transactions through it — under an adversarial schedule
// chooser a retry loop need not terminate, and an aborted attempt is
// itself a history the SI axioms must account for, not something to hide
// behind a retry.
func RunOnce(e Engine, t *sched.Thread, body func(Txn) error) error {
	return runAttempt(e, t, body)
}

// runAttempt executes one transaction attempt, translating abort signals
// into *AbortError values.
func runAttempt(e Engine, t *sched.Thread, body func(Txn) error) (err error) {
	// End any batched quantum before Begin: engine Begin paths read
	// order-sensitive shared state (commit-window occupancy, global
	// clocks, lock tables) that must be observed at the per-event
	// scheduling point. This single fence covers every engine.
	t.Fence()
	tx := e.Begin(t)
	defer func() {
		if r := recover(); r != nil {
			sig, ok := r.(abortSignal)
			if !ok {
				panic(r)
			}
			err = sig.err
		}
	}()
	if berr := body(tx); berr != nil {
		tx.Abort()
		return berr
	}
	return tx.Commit()
}
