package core

import "math/bits"

// computeTable memoizes operation results. Like classic DD packages it is a
// fixed-size hash table with overwrite-on-collision: bounded memory, O(1)
// access, and stale entries simply fall out. Keys are fixed-size integer
// tuples — an operation tag plus the operand node IDs and interned weight
// IDs — so a lookup neither formats nor allocates; entries are verified by
// comparing the stored operands, so a collision can only cost a
// recomputation, never a wrong result.
//
// The slot layout is split into ctBlockCount equal blocks: the top hash bits
// pick a block, the low bits a slot inside it. Which keys collide is part of
// the results at ε > 0 — an evicted entry is recomputed, and the recompute
// interns through the order-dependent tolerance table — so the layout stays
// fixed.

// ctOp tags the operation a compute-table entry memoizes. ctFree marks an
// empty slot, so real tags start at 1.
type ctOp uint8

const (
	ctFree ctOp = iota
	ctAdd
	ctMul
	ctKron
	ctAdjoint
	ctTranspose
	ctInner
	ctApply    // local gate application (apply.go); aID = node, bID = gate ID
	ctProject  // below-target control projector (apply.go)
	ctProjectC // complement of ctProject: the controls-not-all-satisfied part
)

// ctKey is the fixed-size compute-table key. Unary operations leave the b
// operand zero; node-only operations (Mul, Kron, …) leave the WIDs zero.
type ctKey struct {
	aID, bID   uint64
	aWID, bWID uint32
	op         ctOp
}

func (k ctKey) hash() uint64 {
	h := mix64(uint64(k.op)<<56 ^ k.aID)
	h = mix64(h ^ k.bID)
	return mix64(h ^ uint64(k.aWID) ^ uint64(k.bWID)<<32)
}

type ctEntry[T any] struct {
	key ctKey
	val Edge[T]
}

// The compute table has ctBlockCount blocks of equal size.
const (
	ctBlockBits  = 4
	ctBlockCount = 1 << ctBlockBits
)

type computeTable[T any] struct {
	entries   []ctEntry[T]
	blockBits uint   // log2 of the slots per block
	mask      uint64 // slots per block − 1
	filled    int    // occupied slots (load-factor reporting)

	lookups, hits uint64
}

// newComputeTable splits size total slots across the blocks.
func newComputeTable[T any](size int) *computeTable[T] {
	if size <= 0 || size&(size-1) != 0 {
		panic("core: compute table size must be a positive power of two")
	}
	per := max(size/ctBlockCount, 2)
	return &computeTable[T]{
		entries:   make([]ctEntry[T], per*ctBlockCount),
		blockBits: uint(bits.TrailingZeros(uint(per))),
		mask:      uint64(per - 1),
	}
}

// slot returns the entry a key hash maps to.
func (t *computeTable[T]) slot(h uint64) *ctEntry[T] {
	return &t.entries[h>>(64-ctBlockBits)<<t.blockBits|h&t.mask]
}

func (t *computeTable[T]) clear() {
	clear(t.entries)
	t.filled = 0
	t.lookups, t.hits = 0, 0
}

func (t *computeTable[T]) get(k ctKey) (Edge[T], bool) {
	t.lookups++
	e := t.slot(k.hash())
	if e.key == k {
		t.hits++
		return e.val, true
	}
	var zero Edge[T]
	return zero, false
}

func (t *computeTable[T]) put(k ctKey, val Edge[T]) {
	e := t.slot(k.hash())
	if e.key.op == ctFree {
		t.filled++
	}
	e.key, e.val = k, val
}
