package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/alg"
	"repro/internal/num"
)

func budgetM(b Budget) *Manager[complex128] {
	m := NewManager[complex128](num.NewRing(0), NormLeft)
	m.SetBudget(b)
	return m
}

// buildLadder creates fresh vector nodes (distinct weights, so nothing hits
// the unique table) until the budget trips or the count is exhausted.
func buildLadder(m *Manager[complex128], count int) (err error) {
	defer RecoverTo(&err)
	e := m.OneEdge()
	for i := 1; i <= count; i++ {
		w := complex(float64(i), float64(i)/3)
		e = m.MakeVectorNode(i, Edge[complex128]{W: w, N: e.N}, e)
	}
	return nil
}

func TestBudgetIsZero(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Fatal("zero Budget not IsZero")
	}
	for _, b := range []Budget{
		{MaxNodes: 1}, {MaxWeights: 1}, {MaxBytes: 1}, {Deadline: time.Now()},
	} {
		if b.IsZero() {
			t.Fatalf("budget %+v reported IsZero", b)
		}
	}
}

func TestBudgetErrorMatchesSentinel(t *testing.T) {
	var err error = &BudgetError{Limit: "nodes"}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("BudgetError does not match ErrBudgetExceeded")
	}
	wrapped := fmt.Errorf("run: %w", err)
	if !errors.Is(wrapped, ErrBudgetExceeded) {
		t.Fatal("wrapped BudgetError does not match the sentinel")
	}
	var be *BudgetError
	if !errors.As(wrapped, &be) || be.Limit != "nodes" {
		t.Fatal("errors.As failed to recover the BudgetError")
	}
}

func TestMaxNodesTripsDuringBuild(t *testing.T) {
	m := budgetM(Budget{MaxNodes: 8})
	err := buildLadder(m, 100)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "nodes" {
		t.Fatalf("want nodes limit, got %v", err)
	}
	if be.Peak.Nodes < 8 {
		t.Fatalf("peak nodes %d below the limit that tripped", be.Peak.Nodes)
	}
}

func TestMaxWeightsTripsDuringBuild(t *testing.T) {
	m := budgetM(Budget{MaxWeights: 8})
	err := buildLadder(m, 100)
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "weights" {
		t.Fatalf("want weights limit, got %v", err)
	}
	if be.Peak.Weights < 8 {
		t.Fatalf("peak weights %d below the limit that tripped", be.Peak.Weights)
	}
}

func TestMaxBytesTripsDuringBuild(t *testing.T) {
	m := budgetM(Budget{MaxBytes: 1}) // any structure exceeds one byte
	// The byte estimate is only polled every budgetCheckStride node
	// creations, so build comfortably past one stride.
	err := buildLadder(m, 4*budgetCheckStride)
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "bytes" {
		t.Fatalf("want bytes limit, got %v", err)
	}
	if be.Peak.ApproxBytes <= 1 {
		t.Fatalf("peak bytes %d not above the limit", be.Peak.ApproxBytes)
	}
}

func TestContextCancelTripsDuringBuild(t *testing.T) {
	m := budgetM(Budget{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: first throttled poll must trip
	m.SetContext(ctx)
	defer m.SetContext(nil)
	err := buildLadder(m, 4*budgetCheckStride)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestPeakStatsSurviveClearedBudget(t *testing.T) {
	m := budgetM(Budget{})
	if err := buildLadder(m, 50); err != nil {
		t.Fatal(err)
	}
	p := m.Peak()
	if p.Nodes < 50 || p.Weights < 50 {
		t.Fatalf("peaks not recorded without a budget: %+v", p)
	}
	if p.ApproxBytes <= 0 {
		t.Fatalf("byte estimate missing: %+v", p)
	}
}

func TestRecoverTo(t *testing.T) {
	// A *BudgetError passes through unchanged.
	run := func(f func()) (err error) {
		defer RecoverTo(&err)
		f()
		return nil
	}
	be := &BudgetError{Limit: "nodes"}
	if err := run(func() { panic(be) }); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget panic became %v", err)
	}
	// Context errors pass through unchanged.
	if err := run(func() { panic(context.DeadlineExceeded) }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline panic became %v", err)
	}
	// Arbitrary panics are wrapped with their stack.
	err := run(func() { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("string panic not wrapped: %v", err)
	}
	// Runtime errors (index out of range &c.) are wrapped too.
	err = run(func() {
		var xs []int
		_ = xs[3] //nolint — deliberate out-of-range access
	})
	if !errors.As(err, &pe) {
		t.Fatalf("runtime panic not wrapped: %v", err)
	}
	// No panic: err stays nil.
	if err := run(func() {}); err != nil {
		t.Fatalf("spurious error: %v", err)
	}
}

func TestSetBudgetResetsClockNotPeaks(t *testing.T) {
	m := budgetM(Budget{})
	if err := buildLadder(m, 30); err != nil {
		t.Fatal(err)
	}
	before := m.Peak()
	m.SetBudget(Budget{MaxNodes: 1 << 30})
	after := m.Peak()
	if after.Nodes != before.Nodes || after.Weights != before.Weights {
		t.Fatalf("SetBudget reset the peaks: %+v vs %+v", after, before)
	}
}

// localH builds an n-qubit Hadamard LocalGate at the given target level.
func localH[T any](m *Manager[T], target int, ctrls []LocalControl) *LocalGate[T] {
	inv, _ := m.R.FromComplex(complex(1/1.4142135623730951, 0))
	if _, isQ := any(m.R).(alg.Ring); isQ {
		inv = m.R.FromQ(alg.QInvSqrt2)
	}
	base := [2][2]T{{inv, inv}, {inv, m.R.Neg(inv)}}
	return m.PrepareLocal(base, target, ctrls)
}

// buildWalk drives a deterministic pseudo-random sequence of Add and
// ApplyLocal calls over a 12-qubit state and returns the final edge.
func buildWalk[T any](m *Manager[T], seed int64) Edge[T] {
	const n = 12
	r := rand.New(rand.NewSource(seed))
	state := m.BasisState(n, uint64(r.Intn(1<<n)))
	for i := 0; i < 60; i++ {
		target := 1 + r.Intn(n)
		var ctrls []LocalControl
		if r.Intn(2) == 0 {
			c := 1 + r.Intn(n)
			if c != target {
				ctrls = []LocalControl{{Level: c, Neg: r.Intn(2) == 0}}
			}
		}
		state = m.ApplyLocal(localH(m, target, ctrls), state)
		if r.Intn(4) == 0 {
			other := m.BasisState(n, uint64(r.Intn(1<<n)))
			state = m.Add(state, other)
		}
	}
	return state
}

// TestApplyLocalBudgetTrip: a budget violation deep inside an ApplyLocal
// recursion unwinds as one *BudgetError, and the manager stays usable: with
// the budget cleared it still computes what a fresh manager computes.
func TestApplyLocalBudgetTrip(t *testing.T) {
	m := algManager(NormLeft)
	state := buildWalk(m, 12)
	m.SetBudget(Budget{MaxNodes: m.Stats().UniqueNodes + 2})
	err := func() (err error) {
		defer RecoverTo(&err)
		for i := 0; i < 40; i++ {
			state = m.ApplyLocal(localH(m, 1+i%12, nil), state)
		}
		return nil
	}()
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "nodes" {
		t.Fatalf("ApplyLocal under a tiny budget returned %v, want a nodes *BudgetError", err)
	}
	m.SetBudget(Budget{})
	after := m.ApplyLocal(localH(m, 3, nil), m.BasisState(12, 0))
	ref := algManager(NormLeft)
	want := ref.ApplyLocal(localH(ref, 3, nil), ref.BasisState(12, 0))
	if !CrossEqual(ref, want, m, after) {
		t.Fatal("manager computes a different diagram after the budget trip")
	}
}
