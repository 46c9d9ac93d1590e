// Package txlib provides the transactional data structures the paper's
// microbenchmarks and STAMP kernels are built on: a sorted singly linked
// list (including the Listing-2 write-skew variant and its fix), a doubly
// linked list, a red-black tree, a hash table, a FIFO queue, a binary heap
// and a vector.
//
// Every structure stores its fields in the simulated multiversioned memory
// and accesses them exclusively through a tm.Txn, so all traversals and
// updates participate in conflict detection exactly like the RSTM
// containers the paper evaluates. Nodes are allocated on separate cache
// lines (the evaluation detects conflicts at line granularity, §6.1).
package txlib

import (
	"repro/internal/mem"
	"repro/internal/tm"
)

// Mem couples a transactional engine with the allocator of its simulated
// address space. All structures in this package are built over one Mem.
type Mem struct {
	E tm.Engine
	A *mem.Allocator
}

// NewMem returns a Mem for engine e with a fresh address space.
func NewMem(e tm.Engine) *Mem {
	return &Mem{E: e, A: mem.NewAllocator()}
}

// allocNode reserves words fields on a private cache line. The bump
// allocation itself is not transactional: if the enclosing transaction
// aborts, the address is simply never reused — the mvmalloc()-backed
// structures of §4.4 leak allocations of aborted transactions the same
// way until the allocator's free list is consulted again.
func (m *Mem) allocNode(words int) mem.Addr {
	return m.A.AllocAligned(words)
}

// allocNodeIn is allocNode from inside transaction tx. The bump allocator
// is shared non-transactional state whose hand-out order is observable
// (threads write the addresses they receive into the structures), so the
// allocation must happen at a per-event scheduling point: inside a batched
// quantum the real execution order runs ahead of the simulated order and
// would permute the addresses (see sched.Thread.TickHinted).
func (m *Mem) allocNodeIn(tx tm.Txn, words int) mem.Addr {
	tx.Fence()
	return m.A.AllocAligned(words)
}

// field returns the address of 64-bit field i of the node at base.
func field(base mem.Addr, i int) mem.Addr {
	return base + mem.Addr(i*mem.WordBytes)
}

// nilPtr is the null node address.
const nilPtr = 0
