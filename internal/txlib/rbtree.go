package txlib

import (
	"repro/internal/mem"
	"repro/internal/tm"
)

// RBTree is a transactional red-black tree with set/map semantics, the
// container of the paper's Red Black Tree microbenchmark and the structure
// in which the write-skew tool found multiple anomalies (§5.1). Lookups
// are pure traversals (read-only under SI); inserts and deletes rebalance
// and therefore write several nodes per update, which is why the paper
// sees only ~2x improvement from SI on this container.
//
// Node layout (one cache line): key, value, left, right, parent, color.
const (
	rbKey = iota
	rbVal
	rbLeft
	rbRight
	rbParent
	rbColor
	rbFields
)

const (
	red   = 0
	black = 1
)

// Site labels for the write-skew tool.
const (
	SiteRBLookup = "rbtree.lookup"
	SiteRBInsert = "rbtree.insert"
	SiteRBDelete = "rbtree.delete"
	SiteRBFixup  = "rbtree.fixup"
)

// RBTree is a transactional red-black tree.
type RBTree struct {
	m *Mem
	// rootHolder is a one-word cell holding the root pointer, so the
	// root can change transactionally.
	rootHolder mem.Addr
}

// NewRBTree creates an empty tree.
func NewRBTree(m *Mem) *RBTree {
	t := &RBTree{m: m, rootHolder: m.allocNode(1)}
	m.E.NonTxWrite(t.rootHolder, nilPtr)
	return t
}

func (t *RBTree) root(tx tm.Txn) mem.Addr       { return mem.Addr(tx.Read(t.rootHolder)) }
func (t *RBTree) setRoot(tx tm.Txn, n mem.Addr) { tx.Write(t.rootHolder, uint64(n)) }

func getf(tx tm.Txn, n mem.Addr, f int) mem.Addr    { return mem.Addr(tx.Read(field(n, f))) }
func setf(tx tm.Txn, n mem.Addr, f int, v mem.Addr) { tx.Write(field(n, f), uint64(v)) }

// color of a node; nil nodes are black.
func (t *RBTree) color(tx tm.Txn, n mem.Addr) uint64 {
	if n == nilPtr {
		return black
	}
	return tx.Read(field(n, rbColor))
}

// Lookup returns the value stored under k.
func (t *RBTree) Lookup(tx tm.Txn, k uint64) (uint64, bool) {
	tx.Site(SiteRBLookup)
	n := t.root(tx)
	for n != nilPtr {
		// The key read is followed by a child pointer or the value.
		tx.PromiseReads(2)
		nk := tx.Read(field(n, rbKey))
		switch {
		case k < nk:
			n = getf(tx, n, rbLeft)
		case k > nk:
			n = getf(tx, n, rbRight)
		default:
			return tx.Read(field(n, rbVal)), true
		}
	}
	return 0, false
}

// Contains reports whether k is present.
func (t *RBTree) Contains(tx tm.Txn, k uint64) bool {
	_, ok := t.Lookup(tx, k)
	return ok
}

// rotateLeft rotates n with its right child.
func (t *RBTree) rotateLeft(tx tm.Txn, n mem.Addr) {
	r := getf(tx, n, rbRight)
	rl := getf(tx, r, rbLeft)
	setf(tx, n, rbRight, rl)
	if rl != nilPtr {
		setf(tx, rl, rbParent, n)
	}
	p := getf(tx, n, rbParent)
	setf(tx, r, rbParent, p)
	if p == nilPtr {
		t.setRoot(tx, r)
	} else if getf(tx, p, rbLeft) == n {
		setf(tx, p, rbLeft, r)
	} else {
		setf(tx, p, rbRight, r)
	}
	setf(tx, r, rbLeft, n)
	setf(tx, n, rbParent, r)
}

// rotateRight rotates n with its left child.
func (t *RBTree) rotateRight(tx tm.Txn, n mem.Addr) {
	l := getf(tx, n, rbLeft)
	lr := getf(tx, l, rbRight)
	setf(tx, n, rbLeft, lr)
	if lr != nilPtr {
		setf(tx, lr, rbParent, n)
	}
	p := getf(tx, n, rbParent)
	setf(tx, l, rbParent, p)
	if p == nilPtr {
		t.setRoot(tx, l)
	} else if getf(tx, p, rbRight) == n {
		setf(tx, p, rbRight, l)
	} else {
		setf(tx, p, rbLeft, l)
	}
	setf(tx, l, rbRight, n)
	setf(tx, n, rbParent, l)
}

// Insert adds k/v; it reports false (and updates nothing) if k exists.
func (t *RBTree) Insert(tx tm.Txn, k, v uint64) bool {
	tx.Site(SiteRBInsert)
	var parent mem.Addr
	n := t.root(tx)
	for n != nilPtr {
		parent = n
		nk := tx.Read(field(n, rbKey))
		switch {
		case k < nk:
			n = getf(tx, n, rbLeft)
		case k > nk:
			n = getf(tx, n, rbRight)
		default:
			return false
		}
	}
	z := t.m.allocNodeIn(tx, rbFields)
	tx.Write(field(z, rbKey), k)
	tx.Write(field(z, rbVal), v)
	setf(tx, z, rbLeft, nilPtr)
	setf(tx, z, rbRight, nilPtr)
	setf(tx, z, rbParent, parent)
	tx.Write(field(z, rbColor), red)
	if parent == nilPtr {
		t.setRoot(tx, z)
	} else if k < tx.Read(field(parent, rbKey)) {
		setf(tx, parent, rbLeft, z)
	} else {
		setf(tx, parent, rbRight, z)
	}
	t.insertFixup(tx, z)
	return true
}

// insertFixup restores the red-black invariants after inserting z.
func (t *RBTree) insertFixup(tx tm.Txn, z mem.Addr) {
	tx.Site(SiteRBFixup)
	for {
		p := getf(tx, z, rbParent)
		if p == nilPtr || t.color(tx, p) == black {
			break
		}
		g := getf(tx, p, rbParent) // grandparent exists: p is red, root is black
		if getf(tx, g, rbLeft) == p {
			u := getf(tx, g, rbRight)
			if t.color(tx, u) == red {
				tx.Write(field(p, rbColor), black)
				tx.Write(field(u, rbColor), black)
				tx.Write(field(g, rbColor), red)
				z = g
				continue
			}
			if getf(tx, p, rbRight) == z {
				z = p
				t.rotateLeft(tx, z)
				p = getf(tx, z, rbParent)
				g = getf(tx, p, rbParent)
			}
			tx.Write(field(p, rbColor), black)
			tx.Write(field(g, rbColor), red)
			t.rotateRight(tx, g)
		} else {
			u := getf(tx, g, rbLeft)
			if t.color(tx, u) == red {
				tx.Write(field(p, rbColor), black)
				tx.Write(field(u, rbColor), black)
				tx.Write(field(g, rbColor), red)
				z = g
				continue
			}
			if getf(tx, p, rbLeft) == z {
				z = p
				t.rotateRight(tx, z)
				p = getf(tx, z, rbParent)
				g = getf(tx, p, rbParent)
			}
			tx.Write(field(p, rbColor), black)
			tx.Write(field(g, rbColor), red)
			t.rotateLeft(tx, g)
		}
	}
	root := t.root(tx)
	if t.color(tx, root) != black {
		tx.Write(field(root, rbColor), black)
	}
}

// transplant replaces subtree u with subtree v (v may be nil; vParent is
// used when v is nil, following the nil-as-zero convention).
func (t *RBTree) transplant(tx tm.Txn, u, v mem.Addr) {
	p := getf(tx, u, rbParent)
	if p == nilPtr {
		t.setRoot(tx, v)
	} else if getf(tx, p, rbLeft) == u {
		setf(tx, p, rbLeft, v)
	} else {
		setf(tx, p, rbRight, v)
	}
	if v != nilPtr {
		setf(tx, v, rbParent, p)
	}
}

// minimum returns the leftmost node of the subtree rooted at n.
func (t *RBTree) minimum(tx tm.Txn, n mem.Addr) mem.Addr {
	for {
		l := getf(tx, n, rbLeft)
		if l == nilPtr {
			return n
		}
		n = l
	}
}

// Delete removes k, reporting whether it was present.
func (t *RBTree) Delete(tx tm.Txn, k uint64) bool {
	tx.Site(SiteRBDelete)
	z := t.root(tx)
	for z != nilPtr {
		zk := tx.Read(field(z, rbKey))
		if k < zk {
			z = getf(tx, z, rbLeft)
		} else if k > zk {
			z = getf(tx, z, rbRight)
		} else {
			break
		}
	}
	if z == nilPtr {
		return false
	}

	y := z
	yColor := t.color(tx, y)
	var x, xParent mem.Addr
	if getf(tx, z, rbLeft) == nilPtr {
		x = getf(tx, z, rbRight)
		xParent = getf(tx, z, rbParent)
		t.transplant(tx, z, x)
	} else if getf(tx, z, rbRight) == nilPtr {
		x = getf(tx, z, rbLeft)
		xParent = getf(tx, z, rbParent)
		t.transplant(tx, z, x)
	} else {
		y = t.minimum(tx, getf(tx, z, rbRight))
		yColor = t.color(tx, y)
		x = getf(tx, y, rbRight)
		if getf(tx, y, rbParent) == z {
			xParent = y
		} else {
			xParent = getf(tx, y, rbParent)
			t.transplant(tx, y, x)
			zr := getf(tx, z, rbRight)
			setf(tx, y, rbRight, zr)
			setf(tx, zr, rbParent, y)
		}
		t.transplant(tx, z, y)
		zl := getf(tx, z, rbLeft)
		setf(tx, y, rbLeft, zl)
		setf(tx, zl, rbParent, y)
		tx.Write(field(y, rbColor), t.color(tx, z))
	}
	if yColor == black {
		t.deleteFixup(tx, x, xParent)
	}
	return true
}

// deleteFixup restores the invariants after removing a black node; x may
// be nil, in which case xParent locates it.
func (t *RBTree) deleteFixup(tx tm.Txn, x, xParent mem.Addr) {
	tx.Site(SiteRBFixup)
	for x != t.root(tx) && t.color(tx, x) == black {
		if xParent == nilPtr {
			break
		}
		if getf(tx, xParent, rbLeft) == x {
			w := getf(tx, xParent, rbRight)
			if t.color(tx, w) == red {
				tx.Write(field(w, rbColor), black)
				tx.Write(field(xParent, rbColor), red)
				t.rotateLeft(tx, xParent)
				w = getf(tx, xParent, rbRight)
			}
			if t.color(tx, getf(tx, w, rbLeft)) == black && t.color(tx, getf(tx, w, rbRight)) == black {
				tx.Write(field(w, rbColor), red)
				x = xParent
				xParent = getf(tx, x, rbParent)
			} else {
				if t.color(tx, getf(tx, w, rbRight)) == black {
					wl := getf(tx, w, rbLeft)
					if wl != nilPtr {
						tx.Write(field(wl, rbColor), black)
					}
					tx.Write(field(w, rbColor), red)
					t.rotateRight(tx, w)
					w = getf(tx, xParent, rbRight)
				}
				tx.Write(field(w, rbColor), t.color(tx, xParent))
				tx.Write(field(xParent, rbColor), black)
				wr := getf(tx, w, rbRight)
				if wr != nilPtr {
					tx.Write(field(wr, rbColor), black)
				}
				t.rotateLeft(tx, xParent)
				x = t.root(tx)
				xParent = nilPtr
			}
		} else {
			w := getf(tx, xParent, rbLeft)
			if t.color(tx, w) == red {
				tx.Write(field(w, rbColor), black)
				tx.Write(field(xParent, rbColor), red)
				t.rotateRight(tx, xParent)
				w = getf(tx, xParent, rbLeft)
			}
			if t.color(tx, getf(tx, w, rbRight)) == black && t.color(tx, getf(tx, w, rbLeft)) == black {
				tx.Write(field(w, rbColor), red)
				x = xParent
				xParent = getf(tx, x, rbParent)
			} else {
				if t.color(tx, getf(tx, w, rbLeft)) == black {
					wr := getf(tx, w, rbRight)
					if wr != nilPtr {
						tx.Write(field(wr, rbColor), black)
					}
					tx.Write(field(w, rbColor), red)
					t.rotateLeft(tx, w)
					w = getf(tx, xParent, rbLeft)
				}
				tx.Write(field(w, rbColor), t.color(tx, xParent))
				tx.Write(field(xParent, rbColor), black)
				wl := getf(tx, w, rbLeft)
				if wl != nilPtr {
					tx.Write(field(wl, rbColor), black)
				}
				t.rotateRight(tx, xParent)
				x = t.root(tx)
				xParent = nilPtr
			}
		}
	}
	if x != nilPtr {
		tx.Write(field(x, rbColor), black)
	}
}

// Set inserts or updates k/v.
func (t *RBTree) Set(tx tm.Txn, k, v uint64) {
	tx.Site(SiteRBLookup)
	n := t.root(tx)
	for n != nilPtr {
		nk := tx.Read(field(n, rbKey))
		switch {
		case k < nk:
			n = getf(tx, n, rbLeft)
		case k > nk:
			n = getf(tx, n, rbRight)
		default:
			tx.Write(field(n, rbVal), v)
			return
		}
	}
	t.Insert(tx, k, v)
}

// Keys returns all keys in sorted order (read-only in-order walk).
func (t *RBTree) Keys(tx tm.Txn) []uint64 {
	tx.Site(SiteRBLookup)
	var out []uint64
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if n == nilPtr {
			return
		}
		walk(getf(tx, n, rbLeft))
		out = append(out, tx.Read(field(n, rbKey)))
		walk(getf(tx, n, rbRight))
	}
	walk(t.root(tx))
	return out
}

// SeedNonTx inserts keys (value=key) without a transaction for
// initialisation; it reuses the transactional code through a trivial
// pass-through transaction shim.
func (t *RBTree) SeedNonTx(keys []uint64) {
	sh := nonTxShim{e: t.m.E}
	for _, k := range keys {
		t.Insert(sh, k, k)
	}
}

// CheckInvariants verifies the red-black properties through tx; it
// returns an empty string when the tree is valid or a description of the
// violated property. Tests and the write-skew study use it to detect
// structural corruption.
func (t *RBTree) CheckInvariants(tx tm.Txn) string {
	root := t.root(tx)
	if root == nilPtr {
		return ""
	}
	if t.color(tx, root) != black {
		return "root is not black"
	}
	type res struct {
		blackHeight int
		ok          bool
	}
	var bad string
	var walk func(n mem.Addr, min, max uint64) res
	walk = func(n mem.Addr, min, max uint64) res {
		if n == nilPtr {
			return res{1, true}
		}
		k := tx.Read(field(n, rbKey))
		if k < min || k > max {
			bad = "BST order violated"
			return res{0, false}
		}
		c := t.color(tx, n)
		l, r := getf(tx, n, rbLeft), getf(tx, n, rbRight)
		if c == red && (t.color(tx, l) == red || t.color(tx, r) == red) {
			bad = "red node with red child"
			return res{0, false}
		}
		var lmax, rmin uint64
		if k > 0 {
			lmax = k - 1
		}
		rmin = k + 1
		lr := walk(l, min, lmax)
		rr := walk(r, rmin, max)
		if !lr.ok || !rr.ok {
			return res{0, false}
		}
		if lr.blackHeight != rr.blackHeight {
			bad = "black height mismatch"
			return res{0, false}
		}
		h := lr.blackHeight
		if c == black {
			h++
		}
		return res{h, true}
	}
	if r := walk(root, 0, ^uint64(0)); !r.ok {
		return bad
	}
	return ""
}

// nonTxShim adapts non-transactional engine access to the tm.Txn surface
// so seeding can reuse transactional structure code.
type nonTxShim struct{ e tm.Engine }

func (s nonTxShim) Read(a mem.Addr) uint64         { return s.e.NonTxRead(a) }
func (s nonTxShim) Write(a mem.Addr, v uint64)     { s.e.NonTxWrite(a, v) }
func (s nonTxShim) ReadPromoted(a mem.Addr) uint64 { return s.e.NonTxRead(a) }
func (s nonTxShim) Commit() error                  { return nil }
func (s nonTxShim) Abort()                         {}
func (s nonTxShim) Site(string) tm.Txn             { return s }
func (s nonTxShim) Fence()                         {}
func (s nonTxShim) PromiseReads(int)               {}
func (s nonTxShim) ReserveReads(int)               {}
