package core

// Hashing and open-addressed tables for the allocation-free QMDD core.
//
// Node uniqueness and operation memoization used to be keyed on canonical
// strings built with Ring.Key on every call, so the hot path was dominated by
// string formatting rather than ring arithmetic. The core now interns every
// distinct edge weight once per manager, assigning it a dense uint32 weight
// ID (WID), and all table keys are fixed-size integer tuples: node keys hash
// (level, child node IDs, child WIDs) and compute-table keys hash
// (opTag, node IDs, WIDs). The hit paths compare machine words only — they
// neither format nor allocate. See DESIGN.md ("Keying and interning").
//
// Like the paper's package and the JKU package it builds on, each manager
// owns exactly one weight table, one unique table and one compute table, and
// touches them from one goroutine at a time: no locks, no striping.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a hashes a string key. It only remains for the Ring.Key fallback taken
// by coefficient rings that do not implement coeff.Hasher.
func fnv1a(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a cheap full-avalanche mixer that
// spreads entropy into the low bits used for table indexing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ceilPow2 returns the smallest power of two ≥ n (and ≥ 2).
func ceilPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// minTableSize is the initial slot count of the intern and unique tables
// (and the floor tableSizeFor never goes below).
const minTableSize = 1 << 8

// tableSizeFor returns an open-addressing slot count that holds n entries at
// a load factor ≤ ½.
func tableSizeFor(n int) int {
	return max(ceilPow2(2*(n+1)), minTableSize)
}

// internTable assigns dense uint32 IDs (WIDs) to distinct weights. WID 0 is
// reserved for the ring's zero, which the table never stores; every other
// weight's WID is its index in weights plus one. Lookup is linear probing
// over cached hashes; candidate values are compared with Ring.Equal only
// when their hashes match (see Manager.internWeight).
type internTable[T any] struct {
	weights []T      // WID−1 → canonical representative
	hashes  []uint64 // WID−1 → mixed hash, cached for growth
	slots   []uint32 // open-addressed index; 0 = empty, else WID
	mask    uint64
}

func (t *internTable[T]) init(size int) {
	t.weights = t.weights[:0]
	t.hashes = t.hashes[:0]
	t.slots = make([]uint32, size)
	t.mask = uint64(size - 1)
}

// count returns the number of interned weights, zero included.
func (t *internTable[T]) count() int { return len(t.weights) + 1 }

// intern canonicalizes w (with mixed hash h, not the ring's zero class) and
// returns its WID, the canonical representative, and whether the weight was
// new.
func (t *internTable[T]) intern(w T, h uint64, equal func(a, b T) bool) (uint32, T, bool) {
	i := h & t.mask
	for {
		wid := t.slots[i]
		if wid == 0 {
			break
		}
		if t.hashes[wid-1] == h && equal(t.weights[wid-1], w) {
			return wid, t.weights[wid-1], false
		}
		i = (i + 1) & t.mask
	}
	t.weights = append(t.weights, w)
	t.hashes = append(t.hashes, h)
	wid := uint32(len(t.weights))
	t.slots[i] = wid
	if uint64(len(t.weights))*4 >= uint64(len(t.slots))*3 {
		t.grow()
	}
	return wid, w, true
}

// lookup resolves a nonzero WID to its canonical representative.
func (t *internTable[T]) lookup(wid uint32) T { return t.weights[wid-1] }

func (t *internTable[T]) grow() {
	slots := make([]uint32, len(t.slots)*2)
	mask := uint64(len(slots) - 1)
	for j, h := range t.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(j) + 1 // the WID
	}
	t.slots, t.mask = slots, mask
}

// uniqueTable is the open-addressed hash-consing table. Slots hold node
// pointers directly; every node carries its own key (Level, child pointers,
// child WIDs) plus its cached hash, so probing is pointer/ID comparisons.
// Deletion happens only wholesale, in Prune, by rebuilding the table.
type uniqueTable[T any] struct {
	slots         []*Node[T]
	mask          uint64
	used          int
	lookups, hits uint64
}

func (t *uniqueTable[T]) init(size int) {
	t.slots = make([]*Node[T], size)
	t.mask = uint64(size - 1)
	t.used = 0
}

// insert adds a node that is known not to be present (Prune's rebuild path;
// no counters).
func (t *uniqueTable[T]) insert(n *Node[T]) {
	i := n.hash & t.mask
	for t.slots[i] != nil {
		i = (i + 1) & t.mask
	}
	t.slots[i] = n
	t.added()
}

// added accounts for a node just stored in a slot, growing the table past a
// ¾ load factor.
func (t *uniqueTable[T]) added() {
	t.used++
	if uint64(t.used)*4 >= uint64(len(t.slots))*3 {
		t.grow()
	}
}

func (t *uniqueTable[T]) grow() {
	old := t.slots
	t.slots = make([]*Node[T], len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	for _, n := range old {
		if n == nil {
			continue
		}
		i := n.hash & t.mask
		for t.slots[i] != nil {
			i = (i + 1) & t.mask
		}
		t.slots[i] = n
	}
}

// forEach visits every live node.
func (t *uniqueTable[T]) forEach(f func(n *Node[T])) {
	for _, n := range t.slots {
		if n != nil {
			f(n)
		}
	}
}

// nodeHash mixes the unique-table key of a prospective node: its level and,
// per child, the target node ID and interned weight ID.
func nodeHash[T any](level int, es []Edge[T], wids *[MatrixArity]uint32) uint64 {
	h := mix64(uint64(level)<<3 | uint64(len(es)))
	for i := range es {
		var id uint64
		if es[i].N != nil {
			id = es[i].N.ID
		}
		h = mix64(h ^ id ^ uint64(wids[i])<<32)
	}
	return h
}
