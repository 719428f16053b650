package main

import (
	"bytes"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/coeff"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/num"
	"repro/internal/sim"
	"repro/internal/synth"
)

// simulate runs c on a fresh manager over r and returns the ddio bytes of
// the final state.
func simulate[T any](t *testing.T, r coeff.Ring[T], norm core.NormScheme, codec ddio.Codec[T], c *circuit.Circuit) []byte {
	t.Helper()
	m := core.NewManager[T](r, norm)
	s := sim.New(m, c.N)
	for i, g := range c.Gates {
		if err := s.Apply(g); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := ddio.Write(&buf, m, codec, s.State, c.N); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testCircuits(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	raw := algorithms.GSE(algorithms.GSEConfig{Hamiltonian: algorithms.H2Hamiltonian(),
		PhaseBits: 2, Time: gseTime, Trotter: 1, PrepareX: []int{0}})
	gse, _, err := algorithms.CompileCliffordT(raw, synth.New(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*circuit.Circuit{
		"gse":    gse,
		"bwt":    algorithms.BWT(3, 6),
		"grover": algorithms.Grover(4, 5, 0),
	}
}

var norms = []core.NormScheme{core.NormLeft, core.NormMax, core.NormGCD}

// TestTracedRingSamePath checks that a manager over the timing decorator
// produces byte-identical diagrams to one over the bare ring, for both
// representations and every normalisation scheme: a decorator that dropped
// an optional interface (Hasher, GCDRing, ...) would send the core down a
// different path and change the output or its canonical form.
func TestTracedRingSamePath(t *testing.T) {
	for name, c := range testCircuits(t) {
		for _, norm := range norms {
			var rc ringCounters
			wrapped, err := wrapRing[alg.Q](alg.Ring{}, &rc)
			if err != nil {
				t.Fatal(err)
			}
			want := simulate[alg.Q](t, alg.Ring{}, norm, ddio.AlgCodec{}, c)
			if got := simulate(t, wrapped, norm, ddio.AlgCodec{}, c); !bytes.Equal(got, want) {
				t.Errorf("%s alg %s: traced run differs from the bare ring", name, norm)
			}
			if rc.totalCalls() == 0 {
				t.Errorf("%s alg %s: no ring call was counted", name, norm)
			}
			for _, eps := range []float64{0, 1e-10} {
				var fc ringCounters
				wrappedF, err := wrapRing[complex128](num.NewRing(eps), &fc)
				if err != nil {
					t.Fatal(err)
				}
				want := simulate[complex128](t, num.NewRing(eps), norm, ddio.NumCodec{}, c)
				if got := simulate(t, wrappedF, norm, ddio.NumCodec{}, c); !bytes.Equal(got, want) {
					t.Errorf("%s float ε=%g %s: traced run differs from the bare ring", name, eps, norm)
				}
			}
		}
	}
}

// TestTracedRingInterfaces checks that the decorator exposes exactly the
// optional interfaces of the ring it wraps.
func TestTracedRingInterfaces(t *testing.T) {
	check := func(name string, inner, wrapped any) {
		t.Helper()
		pairs := []struct {
			iface string
			has   func(any) bool
		}{
			{"GCDRing", func(r any) bool { _, ok := r.(coeff.GCDRing[alg.Q]); return ok }},
			{"Hasher", func(r any) bool {
				_, a := r.(coeff.Hasher[alg.Q])
				_, b := r.(coeff.Hasher[complex128])
				return a || b
			}},
			{"ExactRing", func(r any) bool { _, ok := r.(coeff.ExactRing); return ok }},
			{"ConcurrentRing", func(r any) bool { _, ok := r.(coeff.ConcurrentRing); return ok }},
		}
		for _, p := range pairs {
			if p.has(inner) != p.has(wrapped) {
				t.Errorf("%s: inner ring has %s = %v, decorator %v", name, p.iface, p.has(inner), p.has(wrapped))
			}
		}
		if e1, e2 := inner.(coeff.ExactRing).Exact(), wrapped.(coeff.ExactRing).Exact(); e1 != e2 {
			t.Errorf("%s: Exact %v, decorator %v", name, e1, e2)
		}
	}
	var c ringCounters
	wa, err := wrapRing[alg.Q](alg.Ring{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	check("alg", alg.Ring{}, wa)
	for _, eps := range []float64{0, 1e-10} {
		inner := num.NewRing(eps)
		wn, err := wrapRing[complex128](inner, &c)
		if err != nil {
			t.Fatal(err)
		}
		check("float", inner, wn)
		if inner.ConcurrentSafe() != wn.(coeff.ConcurrentRing).ConcurrentSafe() {
			t.Errorf("float ε=%g: ConcurrentSafe not forwarded", eps)
		}
	}
}

// bareRing has only the required Ring methods.
type bareRing struct{ coeff.Ring[complex128] }

func TestWrapRingRefusesMissingInterface(t *testing.T) {
	var c ringCounters
	if _, err := wrapRing[complex128](bareRing{num.NewRing(0)}, &c); err == nil {
		t.Fatal("wrapping a ring without Hasher succeeded")
	}
}

// TestTickSamplesEachClass checks that, at the float rings' period, every
// operation class has about one in timeEvery of its calls timed, and a call at every position of a
// repeating pattern, even when the pattern's length divides timeEvery and
// a fixed stride would time the same position every time.
func TestTickSamplesEachClass(t *testing.T) {
	c := ringCounters{period: timeEvery}
	var timed [numOps]uint64
	pattern := []int{opDiv, opMul, opMul, opAdd, opEqHash, opEqHash, opEqHash, opEqHash}
	var position [8]uint64
	for i := 0; i < 256*timeEvery; i++ {
		for k, op := range pattern {
			if c.tick(op) {
				timed[op]++
				position[k]++
			}
		}
	}
	for op := range timed {
		want := float64(c.calls[op]) / timeEvery
		if got := float64(timed[op]); got < 0.8*want || got > 1.2*want {
			t.Errorf("%s: %v of %d calls timed, want about %v", opNames[op], got, c.calls[op], want)
		}
	}
	for k, n := range position {
		if n == 0 {
			t.Errorf("pattern position %d never timed", k)
		}
	}
}
