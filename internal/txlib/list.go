package txlib

import (
	"repro/internal/mem"
	"repro/internal/tm"
)

// List is a sorted singly linked list with set semantics, the container of
// the paper's List microbenchmark and of Listing 2's write-skew study. A
// sentinel head node keeps insert/remove uniform.
//
// Node layout (one cache line): key, value, next.
const (
	listKey = iota
	listVal
	listNext
	listFields
)

// List is a transactional sorted linked list.
type List struct {
	m *Mem
	// head is the sentinel node; head.next is the first element.
	head mem.Addr
	// UnsafeRemove reproduces Listing 2 verbatim: remove does not null
	// the victim's next pointer, so adjacent removes exhibit write
	// skew under snapshot isolation. The default (false) applies the
	// line-10 fix, which forces a write-write conflict instead.
	UnsafeRemove bool
}

// NewList creates an empty list. Construction is non-transactional
// (single-threaded initialisation).
func NewList(m *Mem) *List {
	l := &List{m: m, head: m.allocNode(listFields)}
	m.E.NonTxWrite(field(l.head, listNext), nilPtr)
	return l
}

// site labels help the write-skew tool point at the offending source
// operation (§5.1).
const (
	SiteListTraverse = "list.traverse"
	SiteListInsert   = "list.insert"
	SiteListRemove   = "list.remove"
	SiteListUnlink   = "list.remove:unlink"
)

// find returns the last node with key < k and its successor, reading
// through tx. Every caller reads the successor's key when it is not nil.
func (l *List) find(tx tm.Txn, k uint64) (prev, next mem.Addr) {
	tx.Site(SiteListTraverse)
	prev = l.head
	next = mem.Addr(tx.Read(field(prev, listNext)))
	for next != nilPtr {
		// The key read is followed by next's pointer or the caller's key read.
		tx.PromiseReads(2)
		nk := tx.Read(field(next, listKey))
		if nk >= k {
			break
		}
		prev = next
		next = mem.Addr(tx.Read(field(prev, listNext)))
	}
	return prev, next
}

// Insert adds k (with value v) keeping the list sorted; it reports false
// if k was already present.
func (l *List) Insert(tx tm.Txn, k, v uint64) bool {
	prev, next := l.find(tx, k)
	if next != nilPtr && tx.Read(field(next, listKey)) == k {
		return false
	}
	tx.Site(SiteListInsert)
	n := l.m.allocNodeIn(tx, listFields)
	tx.Write(field(n, listKey), k)
	tx.Write(field(n, listVal), v)
	tx.Write(field(n, listNext), uint64(next))
	tx.Write(field(prev, listNext), uint64(n))
	return true
}

// Remove deletes k, reporting whether it was present. Unless UnsafeRemove
// is set, the victim's next pointer is nulled (Listing 2, line 10) so that
// concurrent removals of adjacent elements collide on a write-write
// conflict instead of silently corrupting the list.
func (l *List) Remove(tx tm.Txn, k uint64) bool {
	prev, next := l.find(tx, k)
	if next == nilPtr || tx.Read(field(next, listKey)) != k {
		return false
	}
	tx.Site(SiteListRemove)
	succ := tx.Read(field(next, listNext))
	tx.Write(field(prev, listNext), succ)
	if !l.UnsafeRemove {
		tx.Site(SiteListUnlink)
		tx.Write(field(next, listNext), nilPtr)
	}
	return true
}

// Contains reports whether k is in the list.
func (l *List) Contains(tx tm.Txn, k uint64) bool {
	_, next := l.find(tx, k)
	return next != nilPtr && tx.Read(field(next, listKey)) == k
}

// Get returns the value stored under k.
func (l *List) Get(tx tm.Txn, k uint64) (uint64, bool) {
	_, next := l.find(tx, k)
	if next == nilPtr || tx.Read(field(next, listKey)) != k {
		return 0, false
	}
	return tx.Read(field(next, listVal)), true
}

// Set updates the value stored under k, inserting if absent.
func (l *List) Set(tx tm.Txn, k, v uint64) {
	_, next := l.find(tx, k)
	if next != nilPtr && tx.Read(field(next, listKey)) == k {
		tx.Write(field(next, listVal), v)
		return
	}
	l.Insert(tx, k, v)
}

// Len counts the elements (a long read-only traversal).
func (l *List) Len(tx tm.Txn) int {
	tx.Site(SiteListTraverse)
	n := 0
	cur := mem.Addr(tx.Read(field(l.head, listNext)))
	for cur != nilPtr {
		n++
		cur = mem.Addr(tx.Read(field(cur, listNext)))
	}
	return n
}

// Keys returns the keys in order (read-only traversal).
func (l *List) Keys(tx tm.Txn) []uint64 {
	tx.Site(SiteListTraverse)
	var out []uint64
	cur := mem.Addr(tx.Read(field(l.head, listNext)))
	for cur != nilPtr {
		out = append(out, tx.Read(field(cur, listKey)))
		cur = mem.Addr(tx.Read(field(cur, listNext)))
	}
	return out
}

// SeedNonTx inserts keys without a transaction, for single-threaded
// initialisation before measurement.
func (l *List) SeedNonTx(keys []uint64) {
	e := l.m.E
	for _, k := range keys {
		prev := l.head
		next := mem.Addr(e.NonTxRead(field(prev, listNext)))
		for next != nilPtr && e.NonTxRead(field(next, listKey)) < k {
			prev = next
			next = mem.Addr(e.NonTxRead(field(prev, listNext)))
		}
		if next != nilPtr && e.NonTxRead(field(next, listKey)) == k {
			continue
		}
		n := l.m.allocNode(listFields)
		e.NonTxWrite(field(n, listKey), k)
		e.NonTxWrite(field(n, listNext), uint64(next))
		e.NonTxWrite(field(prev, listNext), uint64(n))
	}
}

// KeysNonTx returns the current keys without a transaction (consistency
// checking after a run).
func (l *List) KeysNonTx() []uint64 {
	e := l.m.E
	var out []uint64
	cur := mem.Addr(e.NonTxRead(field(l.head, listNext)))
	for cur != nilPtr {
		out = append(out, e.NonTxRead(field(cur, listKey)))
		cur = mem.Addr(e.NonTxRead(field(cur, listNext)))
	}
	return out
}
