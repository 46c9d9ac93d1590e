package aset

// Entry is one epoch-stamped reader record: the transaction and the
// epoch its object had when the record was made. A record is live only
// while the caller's liveness predicate accepts the pair — typically
// "the object's epoch still matches and the transaction has not
// finished" — so finishing or recycling a transaction invalidates all of
// its records at once, without walking any table.
type Entry[T any] struct {
	Tx    T
	Epoch uint64
}

// Readers is a per-line list of epoch-stamped reader records, the
// replacement for SSI-TM's map[*txn]struct{} visible-reader sets.
// Records are appended on first read and removed by swap-remove when a
// scan finds them stale, so registering and deregistering readers never
// allocates in steady state (the backing array is retained). The zero
// value is an empty list.
//
// Population is bounded: every scan compacts, so a list holds at most
// the live readers plus the stale records accumulated since the last
// scan — in practice a handful of entries, cheaper to scan than a map
// was to hash.
type Readers[T any] struct {
	s []Entry[T]
}

// Len returns the number of records, live and stale.
func (r *Readers[T]) Len() int { return len(r.s) }

// Entries returns the records (shared slice; callers must validate each
// record with their liveness predicate and must not modify the slice).
func (r *Readers[T]) Entries() []Entry[T] { return r.s }

// Compact swap-removes every record the predicate rejects.
func (r *Readers[T]) Compact(live func(T, uint64) bool) {
	s := r.s
	for i := 0; i < len(s); {
		if live(s[i].Tx, s[i].Epoch) {
			i++
			continue
		}
		last := len(s) - 1
		s[i] = s[last]
		s[last] = Entry[T]{}
		s = s[:last]
	}
	r.s = s
}

// CompactAdd compacts the list and appends a record for tx. The caller
// guarantees tx is not already live in the list (SSI-TM dedups with a
// per-transaction LineSet before registering); a stale record for the
// same object is removed by the compaction.
func (r *Readers[T]) CompactAdd(tx T, epoch uint64, live func(T, uint64) bool) {
	r.Compact(live)
	r.s = append(r.s, Entry[T]{Tx: tx, Epoch: epoch})
}

// Reset drops every record, keeping capacity.
func (r *Readers[T]) Reset() {
	for i := range r.s {
		r.s[i] = Entry[T]{}
	}
	r.s = r.s[:0]
}
