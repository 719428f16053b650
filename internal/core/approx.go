package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/coeff"
)

// Fidelity-bounded state approximation (the contribution-based scheme of
// "Approximation of Quantum States Using Decision Diagrams", ASP-DAC 2020,
// adapted to this core's rings). Every edge of a vector diagram carries a
// contribution: the total probability mass of the amplitudes whose
// root-to-terminal paths traverse it,
//
//	contribution(p → c) = incoming(p) · |W|² · mass(c)
//
// where incoming(p) is the mass of all paths from the root into p and
// mass(c) is the subtree mass below the edge. Zeroing an edge deletes
// exactly those amplitudes and leaves every other amplitude untouched — it
// is a diagonal 0/1 projector — so the fidelity of the approximated state
// against the original is exactly the retained mass ratio ‖ψ'‖²/‖ψ‖², with
// no cross terms. That ratio is a ratio of ring elements: under the exact
// algebraic representation it is computed in Q[ω] and certified; under the
// float representation it is reported as the float value it is, flagged
// approximate.

// ApproxResult describes what Approximate did.
type ApproxResult struct {
	// Fidelity is the retained fidelity ‖ψ'‖²/‖ψ‖² of the approximated
	// state against the input, guaranteed ≥ the requested minimum. 1 when
	// nothing was zeroed.
	Fidelity float64
	// Exact reports that Fidelity was computed with exact ring arithmetic
	// (coeff.ExactRing) and is the true value, not a float estimate.
	Exact bool
	// ZeroedEdges counts the edges zeroed out of the input diagram.
	ZeroedEdges int
	// NodesBefore and NodesAfter are the diagram node counts on either side
	// of the approximation.
	NodesBefore int
	NodesAfter  int
}

// edgeRef names one outgoing edge of a diagram node.
type edgeRef[T any] struct {
	n   *Node[T]
	idx int
}

// approxCand is one candidate edge for zeroing, ranked by contribution with
// DFS-order tie-breaks so the greedy pass depends only on the diagram (node
// IDs are allocation-ordered and therefore depend on the manager's history).
type approxCand[T any] struct {
	ref     edgeRef[T]
	contrib float64
	ord     int // DFS first-visit index of the owning node
}

// Approximate prunes the n-qubit vector diagram v down to a smaller diagram
// whose fidelity against v stays ≥ minFidelity (0 < minFidelity ≤ 1):
// candidate edges are ranked by contribution and the smallest contributors
// are zeroed greedily while the guaranteed retained mass stays above the
// floor. It returns the approximated diagram (unnormalized — callers track
// the norm exactly as they do across Project) and the fidelity actually
// retained.
//
// The rebuild runs with the manager budget suspended, like Prune:
// approximation is the pressure-relief valve invoked when a budget has
// already tripped, and it strictly shrinks the reachable state. Callers
// should Prune afterwards to sweep the replaced nodes. Structural
// validation failures return an ErrMalformedDiagram-wrapped error and a
// zero-mass input returns ErrZeroVector, as with NewSampler.
func (m *Manager[T]) Approximate(v Edge[T], n int, minFidelity float64) (approx Edge[T], res ApproxResult, err error) {
	if !(minFidelity > 0) || minFidelity > 1 {
		return m.ZeroEdge(), res, fmt.Errorf("core: Approximate minFidelity must be in (0, 1], got %v", minFidelity)
	}
	defer RecoverTo(&err)
	// The validated mass pass of the sampler is exactly the subtree-mass
	// machinery ranking needs.
	s, serr := m.NewSampler(v, n)
	if serr != nil {
		return m.ZeroEdge(), res, serr
	}
	if er, ok := any(m.R).(coeff.ExactRing); ok {
		res.Exact = er.Exact()
	}

	// Deterministic DFS pre-order over the diagram: the visit order depends
	// only on the diagram's shape, never on allocation order.
	nodes := make([]*Node[T], 0, 64)
	ord := make(map[*Node[T]]int)
	stack := []*Node[T]{v.N}
	ord[v.N] = 0
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes = append(nodes, nd)
		for i := len(nd.E) - 1; i >= 0; i-- {
			if c := nd.E[i].N; c != nil {
				if _, seen := ord[c]; !seen {
					ord[c] = -1 // mark pushed; the index is assigned on pop
					stack = append(stack, c)
				}
			}
		}
	}
	for i, nd := range nodes {
		ord[nd] = i
	}
	res.NodesBefore = len(nodes)
	res.NodesAfter = len(nodes)
	res.Fidelity = 1
	if minFidelity == 1 {
		return v, res, nil
	}

	// Incoming path mass, accumulated top-down (levels are strictly
	// decreasing along edges, so descending level order is topological).
	byLevel := make([][]*Node[T], n+1)
	for _, nd := range nodes {
		byLevel[nd.Level] = append(byLevel[nd.Level], nd)
	}
	inc := make(map[*Node[T]]float64, len(nodes))
	inc[v.N] = m.R.Abs2(v.W)
	total := m.R.Abs2(v.W) * s.mass[v.N]
	cands := make([]approxCand[T], 0, 2*len(nodes))
	for level := n; level >= 1; level-- {
		for _, nd := range byLevel[level] {
			p := inc[nd]
			for i, c := range nd.E {
				if m.R.IsZero(c.W) {
					continue
				}
				w2 := m.R.Abs2(c.W)
				childMass := 1.0
				if c.N != nil {
					childMass = s.mass[c.N]
					inc[c.N] += p * w2
				}
				cands = append(cands, approxCand[T]{
					ref:     edgeRef[T]{n: nd, idx: i},
					contrib: p * w2 * childMass,
					ord:     ord[nd],
				})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.contrib != b.contrib {
			return a.contrib < b.contrib
		}
		if a.ord != b.ord {
			return a.ord < b.ord
		}
		return a.ref.idx < b.ref.idx
	})

	// Greedy floor: the sum of zeroed contributions over-counts paths that
	// traverse more than one zeroed edge, so the true removed mass is ≤ the
	// running sum and the bound below is conservative.
	allowed := (1 - minFidelity) * total
	zeroed := make(map[edgeRef[T]]bool)
	accepted := make([]approxCand[T], 0, len(cands))
	cum := 0.0
	for _, c := range cands {
		if cum+c.contrib > allowed {
			break // sorted ascending: nothing later fits either
		}
		cum += c.contrib
		zeroed[c.ref] = true
		accepted = append(accepted, c)
	}
	if len(accepted) == 0 {
		return v, res, nil
	}

	// The rebuild creates the approximated variants of surviving nodes while
	// the table still holds the originals; suspend the budget so a tripped
	// governor cannot abort its own relief valve (Prune sets the precedent).
	defer func(b Budget) { m.budget = b }(m.budget)
	m.budget = Budget{}

	rebuild := func() Edge[T] {
		built := make(map[*Node[T]]Edge[T], len(nodes))
		var rec func(nd *Node[T]) Edge[T]
		rec = func(nd *Node[T]) Edge[T] {
			if e, ok := built[nd]; ok {
				return e
			}
			var buf [MatrixArity]Edge[T]
			es := buf[:len(nd.E)]
			for i, c := range nd.E {
				switch {
				case m.R.IsZero(c.W) || zeroed[edgeRef[T]{n: nd, idx: i}]:
					es[i] = m.ZeroEdge()
				case c.N == nil:
					es[i] = c
				default:
					es[i] = m.Scale(rec(c.N), c.W)
				}
			}
			e := m.MakeNode(nd.Level, es)
			built[nd] = e
			return e
		}
		return m.Scale(rec(v.N), v.W)
	}

	// Retained fidelity of a rebuilt diagram. Zeroing only deletes
	// amplitudes, so this is the plain mass ratio — exact in an exact ring.
	exactMemo := make(map[*Node[T]]T)
	fidelityOf := func(a Edge[T]) float64 {
		if m.IsZero(a) {
			return 0
		}
		var f float64
		if res.Exact {
			ratio := m.R.Div(m.exactMass(a, exactMemo), m.exactMass(v, exactMemo))
			f = real(m.R.Complex128(ratio))
		} else {
			f = m.Norm2(a) / total
		}
		if f < 0 {
			return 0
		}
		return math.Min(f, 1)
	}

	approx = rebuild()
	res.Fidelity = fidelityOf(approx)
	// Safety net against float accumulation in the greedy bound: restore
	// zeroed edges from the largest-contribution end until the floor holds.
	// With zero edges restored the rebuild hash-conses back onto v itself
	// (fidelity exactly 1), so the loop always terminates above the floor.
	for res.Fidelity < minFidelity && len(accepted) > 0 {
		last := accepted[len(accepted)-1]
		accepted = accepted[:len(accepted)-1]
		delete(zeroed, last.ref)
		approx = rebuild()
		res.Fidelity = fidelityOf(approx)
	}
	if len(accepted) == 0 {
		// Everything restored: the rebuild hash-consed back onto v, and the
		// fidelity of a state against itself is 1 by definition — don't let a
		// float mass ratio report 1−ulp for an untouched state.
		res.Fidelity = 1
		res.ZeroedEdges = 0
		res.NodesAfter = res.NodesBefore
		return v, res, nil
	}
	res.ZeroedEdges = len(accepted)
	res.NodesAfter = approx.NodeCount()
	return approx, res, nil
}

// exactMass returns Σ|amplitude|² of the sub-vector hanging off e as an
// exact ring element (|W|² times the memoized node mass; the memo may be
// shared between diagrams — hash-consed shared nodes have one mass).
func (m *Manager[T]) exactMass(e Edge[T], memo map[*Node[T]]T) T {
	if m.R.IsZero(e.W) {
		return m.R.Zero()
	}
	w2 := m.R.Mul(m.R.Conj(e.W), e.W)
	if e.N == nil {
		return w2
	}
	nm, ok := memo[e.N]
	if !ok {
		nm = m.R.Zero()
		for _, c := range e.N.E {
			nm = m.R.Add(nm, m.exactMass(c, memo))
		}
		memo[e.N] = nm
	}
	return m.R.Mul(w2, nm)
}
