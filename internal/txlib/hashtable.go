package txlib

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/tm"
)

// Hashtable is a fixed-bucket chained hash table, the lookup structure of
// the genome, intruder and vacation kernels. Each bucket head occupies its
// own cache line so that unrelated buckets do not conflict under the
// line-granularity conflict detection of §6.1; chains reuse the list node
// layout (key, value, next).
type Hashtable struct {
	m        *Mem
	buckets  mem.Addr // array of bucket-head pointers, one per line
	nBuckets uint64
}

// Site labels for the write-skew tool.
const (
	SiteHashLookup = "hashtable.lookup"
	SiteHashInsert = "hashtable.insert"
	SiteHashRemove = "hashtable.remove"
)

// NewHashtable creates a table with nBuckets chains (rounded up to 1).
func NewHashtable(m *Mem, nBuckets int) *Hashtable {
	if nBuckets < 1 {
		nBuckets = 1
	}
	h := &Hashtable{m: m, nBuckets: uint64(nBuckets)}
	h.buckets = m.A.AllocLines(nBuckets)
	for i := 0; i < nBuckets; i++ {
		m.E.NonTxWrite(h.bucket(uint64(i)), nilPtr)
	}
	return h
}

// bucket returns the address of bucket i's head pointer.
func (h *Hashtable) bucket(i uint64) mem.Addr {
	return h.buckets + mem.Addr(i*mem.LineBytes)
}

// hash spreads keys over buckets (splitmix64 finaliser).
func (h *Hashtable) hash(k uint64) uint64 {
	z := k + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) % h.nBuckets
}

// Get returns the value stored under k.
func (h *Hashtable) Get(tx tm.Txn, k uint64) (uint64, bool) {
	tx.Site(SiteHashLookup)
	cur := mem.Addr(tx.Read(h.bucket(h.hash(k))))
	for cur != nilPtr {
		// The key read is followed by the value or the next pointer.
		tx.PromiseReads(2)
		if tx.Read(field(cur, listKey)) == k {
			return tx.Read(field(cur, listVal)), true
		}
		cur = mem.Addr(tx.Read(field(cur, listNext)))
	}
	return 0, false
}

// Contains reports whether k is present.
func (h *Hashtable) Contains(tx tm.Txn, k uint64) bool {
	_, ok := h.Get(tx, k)
	return ok
}

// Insert adds k/v at the head of its chain; it reports false if k exists.
func (h *Hashtable) Insert(tx tm.Txn, k, v uint64) bool {
	tx.Site(SiteHashLookup)
	b := h.bucket(h.hash(k))
	head := mem.Addr(tx.Read(b))
	for cur := head; cur != nilPtr; cur = mem.Addr(tx.Read(field(cur, listNext))) {
		if tx.Read(field(cur, listKey)) == k {
			return false
		}
	}
	tx.Site(SiteHashInsert)
	n := h.m.allocNodeIn(tx, listFields)
	tx.Write(field(n, listKey), k)
	tx.Write(field(n, listVal), v)
	tx.Write(field(n, listNext), uint64(head))
	tx.Write(b, uint64(n))
	return true
}

// Set inserts or updates k/v.
func (h *Hashtable) Set(tx tm.Txn, k, v uint64) {
	tx.Site(SiteHashLookup)
	b := h.bucket(h.hash(k))
	for cur := mem.Addr(tx.Read(b)); cur != nilPtr; cur = mem.Addr(tx.Read(field(cur, listNext))) {
		if tx.Read(field(cur, listKey)) == k {
			tx.Write(field(cur, listVal), v)
			return
		}
	}
	h.Insert(tx, k, v)
}

// Add increments the value under k by delta, inserting delta if absent;
// it returns the new value. This is the read-modify-write the kmeans
// kernel issues.
func (h *Hashtable) Add(tx tm.Txn, k, delta uint64) uint64 {
	tx.Site(SiteHashLookup)
	b := h.bucket(h.hash(k))
	for cur := mem.Addr(tx.Read(b)); cur != nilPtr; cur = mem.Addr(tx.Read(field(cur, listNext))) {
		if tx.Read(field(cur, listKey)) == k {
			v := tx.Read(field(cur, listVal)) + delta
			tx.Write(field(cur, listVal), v)
			return v
		}
	}
	h.Insert(tx, k, delta)
	return delta
}

// Remove deletes k, reporting whether it was present. The unlink nulls
// the victim's next pointer (the Listing-2 fix) to avoid write skew on
// adjacent chain removals.
func (h *Hashtable) Remove(tx tm.Txn, k uint64) bool {
	tx.Site(SiteHashRemove)
	b := h.bucket(h.hash(k))
	prev := mem.Addr(0)
	cur := mem.Addr(tx.Read(b))
	for cur != nilPtr {
		next := mem.Addr(tx.Read(field(cur, listNext)))
		if tx.Read(field(cur, listKey)) == k {
			if prev == nilPtr {
				tx.Write(b, uint64(next))
			} else {
				tx.Write(field(prev, listNext), uint64(next))
			}
			tx.Write(field(cur, listNext), nilPtr)
			return true
		}
		prev, cur = cur, next
	}
	return false
}

// SeedNonTx inserts pairs without a transaction. Keys are inserted in
// ascending order so the chain layout (and with it the simulation) is
// deterministic.
func (h *Hashtable) SeedNonTx(pairs map[uint64]uint64) {
	keys := make([]uint64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sh := nonTxShim{e: h.m.E}
	for _, k := range keys {
		h.Set(sh, k, pairs[k])
	}
}
