package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/synth"
)

// mulOracle applies g to e through the classic pipeline — the n-level gate
// diagram from gates.BuildDD times e by Manager.Mul — with the base matrix
// resolved by baseFor exactly as LocalGate does. It is the reference the
// local apply path is checked against.
func mulOracle[T any](m *core.Manager[T], n int, g circuit.Gate, e core.Edge[T]) (core.Edge[T], error) {
	base, err := baseFor(m, g)
	if err != nil {
		return core.Edge[T]{}, err
	}
	ctrls := make([]gates.Control, len(g.Controls))
	for i, c := range g.Controls {
		ctrls[i] = gates.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	return m.Mul(gates.BuildDD(m, n, base, g.Target, ctrls), e), nil
}

// TestApplyMatchesMulOracle: the simulator's local-apply fast path lands on
// the same canonical state as the classic BuildDD+Mul pipeline on random
// Clifford+T circuits and on the three figure workloads (Figs. 3–5 at the
// sizes of bench.DefaultParams, rebuilt here because internal/bench imports
// this package). The core-level differential tests (core/apply_test.go)
// cover ApplyLocal against BuildDD+Mul per gate; this one covers the sim
// wiring — LocalGate caching, identity skipping, the per-gate error paths —
// end to end.
func TestApplyMatchesMulOracle(t *testing.T) {
	type workload struct {
		name string
		c    *circuit.Circuit
	}
	var cases []workload
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 6; trial++ {
		cases = append(cases, workload{fmt.Sprintf("random%d", trial), randomCliffordT(r, 3+r.Intn(3), 50)})
	}
	gse, _, err := algorithms.CompileCliffordT(algorithms.GSE(algorithms.GSEConfig{
		Hamiltonian: algorithms.H2Hamiltonian(),
		PhaseBits:   3,
		Time:        0.75,
		Trotter:     2,
		PrepareX:    []int{0},
	}), synth.New(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		workload{"fig3-grover", algorithms.Grover(8, 1<<8-2, 0)},
		workload{"fig4-bwt", algorithms.BWT(6, 60)},
		workload{"fig5-gse", gse})

	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			fast := New(algM(core.NormLeft), w.c.N)
			if err := fast.Run(w.c, nil); err != nil {
				t.Fatal(err)
			}
			m := algM(core.NormLeft)
			want := m.BasisState(w.c.N, 0)
			for i, g := range w.c.Gates {
				next, err := mulOracle(m, w.c.N, g, want)
				if err != nil {
					t.Fatalf("gate %d: %v", i, err)
				}
				want = next
			}
			if !core.CrossEqual(fast.M, fast.State, m, want) {
				t.Fatal("local apply diverged from the BuildDD+Mul oracle")
			}
		})
	}
}

// TestBuildUnitaryMatchesMulOracle: BuildUnitary's matrix-side local apply
// agrees with composing the gate diagrams by Mul.
func TestBuildUnitaryMatchesMulOracle(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	c := randomCliffordT(r, 4, 30)

	m := algM(core.NormLeft)
	u, err := BuildUnitary(m, c)
	if err != nil {
		t.Fatal(err)
	}

	mo := algM(core.NormLeft)
	want := mo.Identity(c.N)
	for i, g := range c.Gates {
		if want, err = mulOracle(mo, c.N, g, want); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}

	if !core.CrossEqual(m, u, mo, want) {
		t.Fatal("BuildUnitary diverged from the Mul-composition oracle")
	}
}

// TestIdentityGatesSkipped: gates whose base block is exactly the identity —
// rz(0), u3(0,0,0), bare or controlled — are skipped without touching the
// state diagram at all.
func TestIdentityGatesSkipped(t *testing.T) {
	m := numM(0)
	s := New(m, 2)
	if err := s.Apply(circuit.Gate{Name: "h", Target: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(circuit.Gate{Name: "x", Target: 1,
		Controls: []circuit.Control{{Qubit: 0}}}); err != nil {
		t.Fatal(err)
	}
	before := s.State
	identities := []circuit.Gate{
		{Name: "rz", Target: 0, Params: []float64{0}},
		{Name: "u3", Target: 1, Params: []float64{0, 0, 0}},
		{Name: "rz", Target: 1, Params: []float64{0},
			Controls: []circuit.Control{{Qubit: 0}}},
	}
	for _, g := range identities {
		lg, err := s.LocalGate(g)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if !lg.IsIdentity() {
			t.Fatalf("%s: not recognized as identity", g)
		}
		if err := s.Apply(g); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if s.State != before {
			t.Fatalf("%s: identity gate changed the state edge", g)
		}
	}
}
