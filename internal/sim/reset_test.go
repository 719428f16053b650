package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/circuit"
)

// ghzRamp is the table-saturating workload of the thrash-guard test: the
// state grows monotonically, so every auto-prune sweep reclaims little and
// the guard keeps raising the watermark.
func ghzRamp(n int) *circuit.Circuit {
	c := circuit.New("ghz", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	return c
}

// TestResetRestoresAutoPruneWatermark is the regression test for the
// sticky-thrash-guard bug: one table-saturating run inflates the watermark
// (by design), but Reset used to keep the inflated value, so a reused
// simulator effectively never pruned again. Reset must restore the
// configured watermark; the raise is run-local.
func TestResetRestoresAutoPruneWatermark(t *testing.T) {
	const n, configured = 16, 4
	c := ghzRamp(n)
	m := numM(0)
	s := New(m, n)
	s.EnableAutoPrune(configured)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	if s.pruneHighWater <= configured {
		t.Fatalf("precondition: thrash guard did not inflate the watermark (%d)", s.pruneHighWater)
	}
	prunesFirst := m.Stats().Prunes
	if prunesFirst == 0 {
		t.Fatal("precondition: auto-prune never ran")
	}

	s.Reset()
	if s.pruneHighWater != configured {
		t.Fatalf("Reset kept watermark %d, want configured %d", s.pruneHighWater, configured)
	}

	// And the restored watermark must actually bite: a second saturating run
	// on the reused simulator prunes again instead of free-running.
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	if prunes := m.Stats().Prunes; prunes <= prunesFirst {
		t.Fatalf("reused simulator never pruned (prunes %d -> %d)", prunesFirst, prunes)
	}
}

// TestResetUnpinsGateCache: nothing the simulator keeps across Reset pins
// diagram nodes — the local-gate cache holds ring values only — so a prune
// after Reset reclaims the previous circuit's diagrams down to the basis
// state.
func TestResetUnpinsGateCache(t *testing.T) {
	const n = 8
	c := algorithms.Grover(n, 13, 1)
	m := numM(0)
	s := New(m, n)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}

	s.Reset()
	removed := m.Prune(s.State)
	if removed == 0 {
		t.Fatal("prune after Reset reclaimed nothing")
	}
	if live, state := m.Stats().UniqueNodes, s.State.NodeCount(); live != state {
		t.Fatalf("table holds %d nodes after Reset+Prune, want the %d live state nodes", live, state)
	}
}

// countingCtx wraps a cancellable context and counts Err() polls, proving
// the context is actually consulted (not just carried around).
type countingCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *countingCtx) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// TestRunCtxPollsContextInsideMul asserts in-recursion cancellation through
// the unconditionally installed manager context: the hook cancels at gate
// 801 (not a between-gates poll point; those fire at multiples of 8), and
// the run must die inside one of the node-heavy Mul recursions of gates
// 802–806 — before gate 807 completes, which is how far the old
// between-gates-only polling would let it get.
func TestRunCtxPollsContextInsideMul(t *testing.T) {
	m := numM(0)
	s := New(m, 10)
	c := algorithms.Grover(10, 500, 0)
	if c.Len() < 810 {
		t.Fatalf("circuit too short for the scenario: %d gates", c.Len())
	}
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &countingCtx{Context: inner}
	last := -1
	err := s.RunCtx(ctx, c, func(i int, g circuit.Gate) bool {
		last = i
		if i == 801 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// By gate 800 a Grover(10) state at ε=0 creates hundreds of fresh nodes
	// per Mul, so the every-256-insertions governor poll must fire well
	// before the 6 remaining gates to the next between-gates check pass.
	if last >= 807 {
		t.Fatalf("cancellation only took effect at the between-gates poll (last gate %d); in-recursion polling is dead", last)
	}
	if ctx.polls.Load() == 0 {
		t.Fatal("context was never polled")
	}
}
