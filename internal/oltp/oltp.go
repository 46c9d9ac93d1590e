package oltp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Workload mirrors the harness workload surface (internal/exp.Workload)
// structurally, so the tier plugs into the cell layer without importing
// it.
type Workload interface {
	Name() string
	Setup(m *txlib.Mem, threads int)
	Run(m *txlib.Mem, th *sched.Thread, bo tm.BackoffConfig)
	Validate(m *txlib.Mem) string
}

// DefaultTheta is the Zipfian skew used when a tier name carries none —
// YCSB's default, and the paper-style hot-head regime where the paged
// store's footprint advantage is largest.
const DefaultTheta = 0.99

// defaultSpan is the default key/account count: a full 2²⁰ (>10⁶)-line
// address span. Setup only *reserves* the span (the bump allocator never
// touches memory), so the heap tracks the lines transactions actually
// touch, not the span — the property the serving-scale tests pin.
const defaultSpan = 1 << 20

// KV is the tiny-transaction key-value session workload: read-mostly
// Zipfian point transactions (a few reads, a couple of read-modify-write
// increments), punctuated every ScanEvery-th transaction by a long
// analytical read-only scan across the hot head of the key space. Keys
// occupy one cache line each; Zipf rank r maps to line r directly, so
// the hot head is contiguous.
type KV struct {
	Keys           int     // key count (span of the table)
	Theta          float64 // Zipfian skew, in [0, 1)
	TxnsPerThread  int
	ReadsPerTxn    int // point reads per session transaction
	WritesPerTxn   int // increments per session transaction
	ScanEvery      int // every Nth transaction is an analytical scan
	ScanLines      int // lines covered by one scan
	InterTxnCycles uint64

	z       *Zipf
	base    mem.Addr
	updates uint64 // committed update transactions (coroutine-serial)
}

// NewKV returns the serving-scale default configuration at the given
// skew (which must satisfy ValidateTheta).
func NewKV(theta float64) *KV {
	return &KV{
		Keys:           defaultSpan,
		Theta:          theta,
		TxnsPerThread:  40,
		ReadsPerTxn:    6,
		WritesPerTxn:   2,
		ScanEvery:      16,
		ScanLines:      2048,
		InterTxnCycles: 20,
	}
}

// Name implements the harness Workload interface.
func (w *KV) Name() string { return fmt.Sprintf("kv@%.2f", w.Theta) }

// Scale implements harness.Scalable: the span is already at serving
// scale, so only the session length grows.
func (w *KV) Scale(factor int) {
	if factor < 1 {
		return
	}
	w.TxnsPerThread *= factor
}

// Setup implements the harness Workload interface. It reserves the key
// span without touching it — values are implicitly zero, and an
// increment of an untouched key reads that zero.
func (w *KV) Setup(m *txlib.Mem, threads int) {
	w.base = m.A.AllocLines(w.Keys)
	w.z = NewZipf(uint64(w.Keys), w.Theta)
	w.updates = 0
}

func (w *KV) addr(rank uint64) mem.Addr {
	return w.base + mem.Addr(rank)*mem.LineBytes
}

// Run implements the harness Workload interface.
func (w *KV) Run(m *txlib.Mem, th *sched.Thread, bo tm.BackoffConfig) {
	r := th.Rand()
	reads := make([]uint64, w.ReadsPerTxn)
	writes := make([]uint64, w.WritesPerTxn)
	for i := 0; i < w.TxnsPerThread; i++ {
		th.LocalTick(w.InterTxnCycles)
		if w.ScanEvery > 0 && i%w.ScanEvery == w.ScanEvery-1 {
			// Long analytical read-only scan over the hot head — the
			// span every update hits. Under SI it commits read-only and
			// aborts no writer; under the eager baselines it conflicts
			// with every concurrent increment.
			_ = tm.Atomic(m.E, th, bo, func(tx tm.Txn) error {
				n := min(w.ScanLines, w.Keys)
				tx.PromiseReads(n)
				var sum uint64
				for l := 0; l < n; l++ {
					sum += tx.Read(w.addr(uint64(l)))
				}
				return nil
			})
			continue
		}
		// Read-mostly session transaction: point reads plus increments.
		// Keys are drawn outside the atomic body so retries replay the
		// same transaction.
		for j := range reads {
			reads[j] = w.z.Next(r)
		}
		for j := range writes {
			writes[j] = w.z.Next(r)
		}
		err := tm.Atomic(m.E, th, bo, func(tx tm.Txn) error {
			tx.PromiseReads(len(reads))
			for _, k := range reads {
				tx.Read(w.addr(k))
			}
			for _, k := range writes {
				a := w.addr(k)
				tx.Write(a, tx.Read(a)+1)
			}
			return nil
		})
		if err == nil {
			w.updates++
		}
	}
}

// Validate implements the harness Workload interface: every committed
// session transaction added exactly WritesPerTxn across the table.
func (w *KV) Validate(m *txlib.Mem) string {
	sum := sumKeys(m.E, w.base, w.Keys)
	want := w.updates * uint64(w.WritesPerTxn)
	if sum != want {
		return fmt.Sprintf("kv: table sums to %d, want %d (%d committed updates x %d writes)",
			sum, want, w.updates, w.WritesPerTxn)
	}
	return ""
}

// Ledger is the 10⁶-account bank: Zipfian transfers between accounts
// (debit one line, credit another; amounts wrap in uint64, so the grand
// total is conserved mod 2⁶⁴), punctuated every ScanEvery-th transaction
// by a long read-only audit scan over the hot accounts.
type Ledger struct {
	Accounts       int
	Theta          float64
	TxnsPerThread  int
	ScanEvery      int
	ScanLines      int
	InterTxnCycles uint64

	z    *Zipf
	base mem.Addr
}

// NewLedger returns the serving-scale default configuration at the given
// skew (which must satisfy ValidateTheta).
func NewLedger(theta float64) *Ledger {
	return &Ledger{
		Accounts:       defaultSpan,
		Theta:          theta,
		TxnsPerThread:  40,
		ScanEvery:      16,
		ScanLines:      2048,
		InterTxnCycles: 20,
	}
}

// Name implements the harness Workload interface.
func (w *Ledger) Name() string { return fmt.Sprintf("ledger@%.2f", w.Theta) }

// Scale implements harness.Scalable.
func (w *Ledger) Scale(factor int) {
	if factor < 1 {
		return
	}
	w.TxnsPerThread *= factor
}

// Setup implements the harness Workload interface: the account span is
// reserved, never touched — every balance starts at the implicit zero.
func (w *Ledger) Setup(m *txlib.Mem, threads int) {
	w.base = m.A.AllocLines(w.Accounts)
	w.z = NewZipf(uint64(w.Accounts), w.Theta)
}

func (w *Ledger) addr(rank uint64) mem.Addr {
	return w.base + mem.Addr(rank)*mem.LineBytes
}

// Run implements the harness Workload interface.
func (w *Ledger) Run(m *txlib.Mem, th *sched.Thread, bo tm.BackoffConfig) {
	r := th.Rand()
	for i := 0; i < w.TxnsPerThread; i++ {
		th.LocalTick(w.InterTxnCycles)
		if w.ScanEvery > 0 && i%w.ScanEvery == w.ScanEvery-1 {
			// Read-only audit over the hot accounts.
			_ = tm.Atomic(m.E, th, bo, func(tx tm.Txn) error {
				n := min(w.ScanLines, w.Accounts)
				tx.PromiseReads(n)
				var sum uint64
				for l := 0; l < n; l++ {
					sum += tx.Read(w.addr(uint64(l)))
				}
				return nil
			})
			continue
		}
		src, dst := w.z.Next(r), w.z.Next(r)
		amount := uint64(1 + r.Intn(100))
		_ = tm.Atomic(m.E, th, bo, func(tx tm.Txn) error {
			sa, da := w.addr(src), w.addr(dst)
			tx.Write(sa, tx.Read(sa)-amount)
			tx.Write(da, tx.Read(da)+amount)
			return nil
		})
	}
}

// Validate implements the harness Workload interface: transfers conserve
// the grand total, which started at zero.
func (w *Ledger) Validate(m *txlib.Mem) string {
	if sum := sumKeys(m.E, w.base, w.Accounts); sum != 0 {
		return fmt.Sprintf("ledger: accounts sum to %d, want 0 (transfers must conserve)", sum)
	}
	return ""
}

// sumKeys sums the value word (word 0) of the n one-line keys from base.
// NonTxScan skips only words that read as zero, so the sum equals the
// per-key NonTxRead sum, at a cost in proportion to the pages the cell
// stored to rather than to the span.
func sumKeys(e tm.Engine, base mem.Addr, n int) uint64 {
	var sum uint64
	e.NonTxScan(base, base+mem.Addr(n)*mem.LineBytes, func(a mem.Addr, v uint64) {
		if (a-base)%mem.LineBytes == 0 {
			sum += v
		}
	})
	return sum
}

// TierNames lists the workload tier's name forms for error listings and
// help text.
func TierNames() []string { return []string{"kv[@theta]", "ledger[@theta]"} }

// ByName resolves an OLTP tier name — "kv", "ledger", or either with an
// explicit skew suffix like "kv@0.99". The second result reports whether
// the name belongs to this tier at all; when it does but the skew is
// malformed, out of range or not exactly a two-decimal value, the error
// explains (registry-style: callers print it and exit 2).
//
// The skew must survive the canonical name: callers address cells by
// Name(), which prints theta to two decimals, so "kv@0.505" would
// otherwise be renamed "kv@0.51" and then simulated at 0.51.
func ByName(name string) (func() Workload, bool, error) {
	base, thetaStr, hasTheta := strings.Cut(name, "@")
	var mk func(theta float64) Workload
	switch {
	case strings.EqualFold(base, "kv"):
		mk = func(theta float64) Workload { return NewKV(theta) }
	case strings.EqualFold(base, "ledger"):
		mk = func(theta float64) Workload { return NewLedger(theta) }
	default:
		return nil, false, nil
	}
	theta := DefaultTheta
	if hasTheta {
		v, err := strconv.ParseFloat(thetaStr, 64)
		if err != nil {
			return nil, true, fmt.Errorf("oltp: malformed theta %q in workload %q", thetaStr, name)
		}
		theta = v
	}
	if err := ValidateTheta(theta); err != nil {
		return nil, true, err
	}
	canon := mk(theta).Name()
	_, canonTheta, _ := strings.Cut(canon, "@")
	if v, err := strconv.ParseFloat(canonTheta, 64); err != nil || math.Float64bits(v) != math.Float64bits(theta) {
		return nil, true, fmt.Errorf("oltp: theta %q in workload %q is not a two-decimal skew; its canonical name %q would run theta %s",
			thetaStr, name, canon, canonTheta)
	}
	return func() Workload { return mk(theta) }, true, nil
}
