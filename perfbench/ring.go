package main

import (
	"fmt"
	"time"

	"repro/internal/alg"
	"repro/internal/coeff"
)

// Ring operation classes the traced run accounts separately. Normalisation
// divides (Div, DivExact, GCD) are the Q[ω] canonicalisation cost; eqHash is
// the table-probe cost (Equal, Hash, Key, IsZero, IsOne).
const (
	opDiv = iota
	opMul
	opAdd
	opEqHash
	opOther
	numOps
)

var opNames = [numOps]string{"div", "mul", "add", "eq_hash", "other"}

// timeEvery is the timing period for float rings: every call is counted,
// one in timeEvery on average is timed and its duration scaled up. Reading
// the clock twice per call would cost more than a float64 operation itself
// and swamp the layer split it is meant to measure. Exact rings have every
// call timed: a Q[ω] call costs far more than the clock read, and its cost
// grows with the coefficients, so a sample of one in 32 left alg.share
// 5–10% off from solve to solve.
const timeEvery = 32

// ringCounters accumulates call counts and estimated wall time per
// operation class. It is not synchronised: the benchmark's managers run
// with one intra-op worker, so a manager calls its ring from one goroutine
// at a time.
type ringCounters struct {
	calls [numOps]uint64
	dur   [numOps]time.Duration
	// period is how many calls there are per timed call on average; 0 and
	// 1 time every call.
	period uint64
	rng    uint64 // xorshift state that picks the timed calls
}

// tick counts a call of class op and reports whether to time it. With a
// period above 1, each call is timed with probability 1/period, drawn from
// a fixed-seed xorshift generator, so the scaled-up times are unbiased for
// every class. A fixed stride, shared or per class, can alias with the
// call pattern that repeats from gate to gate and time the same costly or
// cheap call of each gate.
func (c *ringCounters) tick(op int) bool {
	c.calls[op]++
	if c.period <= 1 {
		return true
	}
	x := c.rng
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return ((x*0x2545F4914F6CDD1D)>>32)%c.period == 0
}

func (c *ringCounters) timed(op int, start time.Time) {
	if d := time.Since(start) - clockCost; d > 0 {
		c.dur[op] += time.Duration(max(c.period, 1)) * d
	}
}

// clockCost is the median duration of an empty timed interval, subtracted
// from every timed ring call so that the clock's own cost is not booked to
// the ring.
var clockCost = func() time.Duration {
	ds := make([]float64, 2001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}()

func (c *ringCounters) totalCalls() uint64 {
	var n uint64
	for _, v := range c.calls {
		n += v
	}
	return n
}

func (c *ringCounters) totalDur() time.Duration {
	var d time.Duration
	for _, v := range c.dur {
		d += v
	}
	return d
}

// tracedRing wraps a coefficient ring and times every call into it. It
// forwards every optional interface the QMDD core type-asserts — Hasher,
// ExactRing and ConcurrentRing here, GCDRing in tracedGCDRing — so a manager
// over the wrapper takes the same code path as one over the bare ring.
type tracedRing[T any] struct {
	in    coeff.Ring[T]
	hash  coeff.Hasher[T]
	exact coeff.ExactRing
	conc  coeff.ConcurrentRing
	c     *ringCounters
}

// tracedGCDRing adds the GCD normalisation entry points for rings that have
// them (the algebraic ring).
type tracedGCDRing[T any] struct {
	*tracedRing[T]
	gcd coeff.GCDRing[T]
}

// wrapRing returns a timing decorator over r that counts into c, and sets
// c's timing period: every call for an exact ring, one in timeEvery for a
// float ring. It refuses
// a ring lacking one of the optional interfaces the decorator exposes:
// claiming an interface the inner ring lacks would change the core's code
// path just as surely as dropping one it has.
func wrapRing[T any](r coeff.Ring[T], c *ringCounters) (coeff.Ring[T], error) {
	t := &tracedRing[T]{in: r, c: c}
	var ok bool
	if t.hash, ok = any(r).(coeff.Hasher[T]); !ok {
		return nil, fmt.Errorf("ring %T does not implement coeff.Hasher", r)
	}
	if t.exact, ok = any(r).(coeff.ExactRing); !ok {
		return nil, fmt.Errorf("ring %T does not implement coeff.ExactRing", r)
	}
	c.period = 1
	if !t.exact.Exact() {
		c.period = timeEvery
	}
	if t.conc, ok = any(r).(coeff.ConcurrentRing); !ok {
		return nil, fmt.Errorf("ring %T does not implement coeff.ConcurrentRing", r)
	}
	if g, ok := any(r).(coeff.GCDRing[T]); ok {
		return tracedGCDRing[T]{tracedRing: t, gcd: g}, nil
	}
	return t, nil
}

func (t *tracedRing[T]) Zero() T { return t.in.Zero() }
func (t *tracedRing[T]) One() T  { return t.in.One() }

func (t *tracedRing[T]) Add(a, b T) T {
	if t.c.tick(opAdd) {
		defer t.c.timed(opAdd, time.Now())
	}
	return t.in.Add(a, b)
}

func (t *tracedRing[T]) Sub(a, b T) T {
	if t.c.tick(opAdd) {
		defer t.c.timed(opAdd, time.Now())
	}
	return t.in.Sub(a, b)
}

func (t *tracedRing[T]) Neg(a T) T {
	if t.c.tick(opAdd) {
		defer t.c.timed(opAdd, time.Now())
	}
	return t.in.Neg(a)
}

func (t *tracedRing[T]) Mul(a, b T) T {
	if t.c.tick(opMul) {
		defer t.c.timed(opMul, time.Now())
	}
	return t.in.Mul(a, b)
}

func (t *tracedRing[T]) Div(a, b T) T {
	if t.c.tick(opDiv) {
		defer t.c.timed(opDiv, time.Now())
	}
	return t.in.Div(a, b)
}

func (t *tracedRing[T]) Conj(a T) T {
	if t.c.tick(opOther) {
		defer t.c.timed(opOther, time.Now())
	}
	return t.in.Conj(a)
}

func (t *tracedRing[T]) IsZero(a T) bool {
	if t.c.tick(opEqHash) {
		defer t.c.timed(opEqHash, time.Now())
	}
	return t.in.IsZero(a)
}

func (t *tracedRing[T]) IsOne(a T) bool {
	if t.c.tick(opEqHash) {
		defer t.c.timed(opEqHash, time.Now())
	}
	return t.in.IsOne(a)
}

func (t *tracedRing[T]) Equal(a, b T) bool {
	if t.c.tick(opEqHash) {
		defer t.c.timed(opEqHash, time.Now())
	}
	return t.in.Equal(a, b)
}

func (t *tracedRing[T]) Key(a T) string {
	if t.c.tick(opEqHash) {
		defer t.c.timed(opEqHash, time.Now())
	}
	return t.in.Key(a)
}

func (t *tracedRing[T]) Hash(a T) uint64 {
	if t.c.tick(opEqHash) {
		defer t.c.timed(opEqHash, time.Now())
	}
	return t.hash.Hash(a)
}

func (t *tracedRing[T]) FromQ(q alg.Q) T {
	if t.c.tick(opOther) {
		defer t.c.timed(opOther, time.Now())
	}
	return t.in.FromQ(q)
}

func (t *tracedRing[T]) FromComplex(c complex128) (T, bool) {
	if t.c.tick(opOther) {
		defer t.c.timed(opOther, time.Now())
	}
	return t.in.FromComplex(c)
}

func (t *tracedRing[T]) Complex128(a T) complex128 {
	if t.c.tick(opOther) {
		defer t.c.timed(opOther, time.Now())
	}
	return t.in.Complex128(a)
}

func (t *tracedRing[T]) Abs2(a T) float64 {
	if t.c.tick(opOther) {
		defer t.c.timed(opOther, time.Now())
	}
	return t.in.Abs2(a)
}

func (t *tracedRing[T]) BitLen(a T) int {
	if t.c.tick(opOther) {
		defer t.c.timed(opOther, time.Now())
	}
	return t.in.BitLen(a)
}

func (t *tracedRing[T]) Exact() bool          { return t.exact.Exact() }
func (t *tracedRing[T]) ConcurrentSafe() bool { return t.conc.ConcurrentSafe() }

func (t tracedGCDRing[T]) GCD(ws []T) (T, bool) {
	if t.c.tick(opDiv) {
		defer t.c.timed(opDiv, time.Now())
	}
	return t.gcd.GCD(ws)
}

func (t tracedGCDRing[T]) DivExact(a, b T) (T, bool) {
	if t.c.tick(opDiv) {
		defer t.c.timed(opDiv, time.Now())
	}
	return t.gcd.DivExact(a, b)
}
