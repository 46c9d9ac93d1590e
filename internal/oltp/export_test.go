package oltp

import "repro/internal/mem"

// MaxZetaMemo is the memo's entry bound.
const MaxZetaMemo = maxZetaMemo

// ZetaSums reports how many O(n) zeta sums the process has computed.
func ZetaSums() uint64 { return zetaSums.Load() }

// ZetaMemoLen reports how many sums the memo holds.
func ZetaMemoLen() int {
	zetaMemo.mu.Lock()
	defer zetaMemo.mu.Unlock()
	return len(zetaMemo.m)
}

// ResetZetaMemo empties the memo, so a test sees every key's first use.
func ResetZetaMemo() {
	zetaMemo.mu.Lock()
	zetaMemo.m = nil
	zetaMemo.mu.Unlock()
}

// Zetan returns the generator's zeta sum over its n ranks.
func (z *Zipf) Zetan() float64 { return z.zetan }

// Addr returns the address of key k's value word.
func (w *KV) Addr(k uint64) mem.Addr { return w.addr(k) }

// Addr returns the address of account k's balance word.
func (w *Ledger) Addr(k uint64) mem.Addr { return w.addr(k) }
