package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/accuracy"
	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/coeff"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/dense"
	"repro/internal/num"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Library-simulation workload sizes. GSE: the paper's Fig. 5 circuit over
// the H₂ Hamiltonian, compiled to Clifford+T at Solovay–Kitaev depth 2, so
// exact coefficients pass 1000 bits while the diagram stays at a few dozen
// nodes. BWT: Fig. 4 at depth 9, where ε = 0 floats keep every rounding
// variant apart and the diagram grows to thousands of nodes.
const (
	gsePhaseBits = 3
	gseTrotter   = 2
	gseSKDepth   = 2
	gseNetLen    = 10
	gseTime      = 0.75

	bwtDepth = 9
	bwtSteps = 50

	// refTol bounds the distance between a float view of a final state and
	// its reference: the dense simulator accumulates rounding over
	// thousands of gates, far below this.
	refTol = 1e-8
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median of their CPU times (see processCPU).
	setupReps = 5
	// setupMin is the least set-up time a sim run spends in total: BWT's
	// set-up takes about a millisecond, so it is repeated (up to
	// setupMaxReps times) until its median rests on enough samples to be
	// steady from run to run.
	setupMin     = 250 * time.Millisecond
	setupMaxReps = 1000
	// heapSamples is how many units of work end with a forced GC to read
	// the live heap while the unit's diagram is still reachable.
	heapSamples = 3
)

// simInstance is one seeded library-simulation problem plus what is needed
// to check its answer.
type simInstance[T any] struct {
	circ    *circuit.Circuit
	newRing func() coeff.Ring[T]
	norm    core.NormScheme
	codec   ddio.Codec[T]
	// reference simulates the circuit independently of the measured path
	// and returns the check of a final state. It is the benchmark's own
	// work, not the program's set-up, so a run calls it once, outside the
	// timed set-up.
	reference func() (checker[T], error)
	// compile is the synthesis time spent building the circuit.
	compile time.Duration
}

// checker validates a final state and returns its distance to the exact
// state (‖ψ − ψ_exact‖₂).
type checker[T any] func(m *core.Manager[T], e core.Edge[T]) (float64, error)

// gseInstance builds the Clifford+T GSE circuit. The seed picks the
// system register's initial basis state (the state preparation's X layer);
// the gate sequence after it is the same for every seed.
func gseInstance(seed int64) (*simInstance[alg.Q], error) {
	rng := rand.New(rand.NewSource(seed))
	h := algorithms.H2Hamiltonian()
	var prep []int
	for q, bits := 0, rng.Intn(1<<uint(h.Qubits)); q < h.Qubits; q++ {
		if bits>>uint(q)&1 == 1 {
			prep = append(prep, q)
		}
	}
	raw := algorithms.GSE(algorithms.GSEConfig{
		Hamiltonian: h, PhaseBits: gsePhaseBits, Time: gseTime,
		Trotter: gseTrotter, PrepareX: prep,
	})
	t0 := time.Now()
	ct, _, err := algorithms.CompileCliffordT(raw, synth.New(gseNetLen), gseSKDepth)
	if err != nil {
		return nil, err
	}
	return &simInstance[alg.Q]{
		circ:    ct,
		newRing: func() coeff.Ring[alg.Q] { return alg.Ring{} },
		norm:    core.NormLeft,
		codec:   ddio.AlgCodec{},
		compile: time.Since(t0),
		reference: func() (checker[alg.Q], error) {
			ref := dense.New(ct.N)
			if err := ref.Run(ct); err != nil {
				return nil, fmt.Errorf("dense reference: %w", err)
			}
			return func(m *core.Manager[alg.Q], e core.Edge[alg.Q]) (float64, error) {
				got := m.ToVector(e, ct.N)
				for i, q := range got {
					if d := cmplx.Abs(q.Complex128() - ref.Amp[i]); d > refTol {
						return 0, fmt.Errorf("amplitude %d differs from the dense reference by %g", i, d)
					}
				}
				// The state is exact: its distance to the exact state is 0
				// by construction once it matches the reference.
				return 0, nil
			}, nil
		},
	}, nil
}

// bwtInstance builds the BWT walk simulated in float64 at ε = 0. The seed
// picks the walker's initial path-register value; an exact Q[ω] run of the
// same circuit, itself checked against the dense simulator, is the
// reference for sim.state_err.
func bwtInstance(seed int64) (*simInstance[complex128], error) {
	rng := rand.New(rand.NewSource(seed))
	walk := algorithms.BWT(bwtDepth, bwtSteps)
	pathBits := walk.N - 1 - bitsFor(algorithms.BWTColumns(bwtDepth))
	c := circuit.New("bwt", walk.N)
	for b, v := 0, rng.Intn(1<<uint(pathBits)); b < pathBits; b++ {
		if v>>uint(b)&1 == 1 {
			c.X(walk.N - pathBits + b)
		}
	}
	for _, g := range walk.Gates {
		c.Append(g)
	}

	return &simInstance[complex128]{
		circ:    c,
		newRing: func() coeff.Ring[complex128] { return num.NewRing(0) },
		norm:    core.NormLeft,
		codec:   ddio.NumCodec{},
		reference: func() (checker[complex128], error) {
			am := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			as := sim.New(am, c.N)
			if err := as.Run(c, nil); err != nil {
				return nil, fmt.Errorf("exact reference: %w", err)
			}
			exact := am.ToVector(as.State, c.N)
			ref := dense.New(c.N)
			if err := ref.Run(c); err != nil {
				return nil, fmt.Errorf("dense reference: %w", err)
			}
			for i, q := range exact {
				if d := cmplx.Abs(q.Complex128() - ref.Amp[i]); d > refTol {
					return nil, fmt.Errorf("exact reference amplitude %d differs from the dense simulator by %g", i, d)
				}
			}
			return func(m *core.Manager[complex128], e core.Edge[complex128]) (float64, error) {
				errL2 := accuracy.VectorError(m.ToVector(e, c.N), exact)
				if !(errL2 <= refTol) {
					return errL2, fmt.Errorf("float state is %g from the exact state", errL2)
				}
				return errL2, nil
			}, nil
		},
	}, nil
}

func bitsFor(n int) int {
	k := 1
	for 1<<uint(k) < n {
		k++
	}
	return k
}

// solveStats is what one full simulation reports.
type solveStats struct {
	dur       time.Duration
	cpu       time.Duration // process CPU time over the gates
	nodes     int
	digest    [sha256.Size]byte
	stateErr  float64
	heapMB    float64 // live heap at the end of the solve, 0 when not sampled
	snap      core.Snapshot
	ring      ringCounters
	applies   []float64 // per-gate Apply wall time, µs (traced only)
	allocs    uint64
	allocB    uint64
	maxBits   int
	ringInApp time.Duration
	applyTot  time.Duration
}

// solve runs one full simulation on a fresh manager. With tr non-nil every
// Apply is a span and every ring call is timed.
func solve[T any](inst *simInstance[T], check checker[T], tr *tracer, sampleHeap bool) (*solveStats, error) {
	st := &solveStats{}
	var rc ringCounters
	r := inst.newRing()
	if tr != nil {
		var err error
		if r, err = wrapRing(r, &rc); err != nil {
			return nil, err
		}
	}
	m := core.NewManager[T](r, inst.norm)
	s := sim.New(m, inst.circ.N)
	var root int
	var a0 [2]uint64
	if tr != nil {
		a0 = allocCounters()
		root = tr.begin(0, "sim.solve")
		st.applies = make([]float64, 0, len(inst.circ.Gates))
	}
	start, cpu0 := time.Now(), processCPU()
	for i, g := range inst.circ.Gates {
		if tr == nil {
			if err := s.Apply(g); err != nil {
				return nil, fmt.Errorf("gate %d: %w", i, err)
			}
			continue
		}
		ringBefore := rc.totalDur()
		id := tr.begin(root, "sim.Apply")
		t0 := time.Now()
		err := s.Apply(g)
		d := time.Since(t0)
		ringD := rc.totalDur() - ringBefore
		tr.end(id, ringD)
		if err != nil {
			return nil, fmt.Errorf("gate %d: %w", i, err)
		}
		st.applies = append(st.applies, float64(d.Nanoseconds())/1e3)
		st.applyTot += d
		st.ringInApp += ringD
	}
	st.dur = time.Since(start)
	st.cpu = processCPU() - cpu0
	if tr != nil {
		tr.end(root, 0)
		a1 := allocCounters()
		st.allocs, st.allocB = a1[0]-a0[0], a1[1]-a0[1]
		// The checks below call the ring too; the layer metrics count the
		// simulation's calls only.
		st.ring = rc
		st.maxBits = m.MaxWeightBitLen(s.State)
	}
	st.nodes = s.State.NodeCount()
	st.snap = m.Snapshot()
	if sampleHeap {
		st.heapMB = liveHeapMB()
	}
	var buf bytes.Buffer
	if err := ddio.Write(&buf, m, inst.codec, s.State, inst.circ.N); err != nil {
		return nil, fmt.Errorf("serialising the final state: %w", err)
	}
	st.digest = sha256.Sum256(buf.Bytes())
	var err error
	st.stateErr, err = check(m, s.State)
	runtime.KeepAlive(s)
	return st, err
}

// allocCounters reads cumulative heap allocations (objects, bytes) without
// stopping the world.
func allocCounters() [2]uint64 {
	ss := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(ss)
	return [2]uint64{ss[0].Value.Uint64(), ss[1].Value.Uint64()}
}

// liveHeapMB forces a collection and returns the live heap it marked.
func liveHeapMB() float64 {
	runtime.GC()
	ss := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ss)
	return float64(ss[0].Value.Uint64()) / (1 << 20)
}

// runSim measures one library-simulation workload: setupReps set-ups
// (circuit generation and synthesis), the reference simulation, then full
// simulations on fresh managers until the run time is spent.
func runSim[T any](cfg runConfig, build func(int64) (*simInstance[T], error), res *result) error {
	var setups []float64
	var inst *simInstance[T]
	var compiles []float64
	for spent := 0.0; len(setups) < setupReps || (spent < setupMin.Seconds() && len(setups) < setupMaxReps); {
		t0, cpu0 := time.Now(), processCPU()
		in, err := build(cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - cpu0).Seconds())
		spent += time.Since(t0).Seconds()
		compiles = append(compiles, in.compile.Seconds())
		inst = in
	}
	res.set("setup_s", median(setups), len(setups))
	check, err := inst.reference()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	res.size("qubits", inst.circ.N)
	res.size("gates", len(inst.circ.Gates))

	var untraced, traced []*solveStats
	var first *solveStats
	deadline := time.Now().Add(cfg.duration)
	record := func(st *solveStats, err error) {
		res.attempted++
		if err != nil {
			res.fail(err)
			return
		}
		if first == nil {
			first = st
		} else if st.digest != first.digest {
			res.fail(fmt.Errorf("final-state digest differs between repetitions"))
		}
	}
	// With tracing on, solves alternate: odd ones traced, even ones the
	// untraced baseline for trace.overhead_share. The baseline leaves out
	// the first solve, which also pays for the process's heap growth.
	for i := 0; time.Now().Before(deadline) || len(untraced)+len(traced) < minSolves; i++ {
		var tr *tracer
		if cfg.trace && i%2 == 1 {
			tr = cfg.tracer
		}
		st, err := solve(inst, check, tr, i < heapSamples)
		record(st, err)
		if err != nil {
			return nil
		}
		if tr != nil {
			traced = append(traced, st)
		} else {
			untraced = append(untraced, st)
		}
	}
	if first == nil {
		return nil
	}
	all := append(append([]*solveStats{}, untraced...), traced...)
	var heap float64
	for _, st := range all {
		heap = math.Max(heap, st.heapMB)
	}

	if !cfg.trace {
		cpus := make([]float64, len(untraced))
		for i, st := range untraced {
			cpus[i] = ms(st.cpu)
		}
		res.set("cpu_ms.p50", median(cpus), len(cpus))
		res.set("peak_heap_mb", heap, min(heapSamples, len(all)))
		res.set("final_nodes", float64(first.nodes), 1)
		return nil
	}
	er, _ := any(inst.newRing()).(coeff.ExactRing)
	simLayerMetrics(res, inst.circ, er != nil && er.Exact(), untraced, traced)
	if inst.compile > 0 {
		res.set("synth.compile_s", median(compiles), len(compiles))
	}
	return nil
}

// minSolves is the fewest full simulations a run times, however long they
// take: a median needs more than one sample.
const minSolves = 3

// simLayerMetrics reduces the traced solves to the per-layer metrics; exact
// says whether the ring calls are Q[ω] (alg.*) or float64 (num.*) work.
func simLayerMetrics(res *result, c *circuit.Circuit, exact bool, untraced, traced []*solveStats) {
	n := float64(len(traced))
	var ring ringCounters
	var applies []float64
	var applyTot, ringTot time.Duration
	var allocs, allocB uint64
	var durs []float64
	for _, st := range traced {
		for i := range ring.calls {
			ring.calls[i] += st.ring.calls[i]
			ring.dur[i] += st.ring.dur[i]
		}
		applies = append(applies, st.applies...)
		applyTot += st.applyTot
		ringTot += st.ringInApp
		allocs += st.allocs
		allocB += st.allocB
		durs = append(durs, st.dur.Seconds())
	}
	last := traced[len(traced)-1]
	gates := float64(len(c.Gates))
	perSolve := func(v float64) float64 { return v / n }
	for op := opDiv; op <= opEqHash; op++ {
		calls, secs := 0.0, 0.0
		if exact {
			calls, secs = float64(ring.calls[op]), ring.dur[op].Seconds()
		}
		res.set("alg."+opNames[op]+".calls", perSolve(calls), len(traced))
		res.set("alg."+opNames[op]+".s", perSolve(secs), len(traced))
	}
	share := 0.0
	if applyTot > 0 {
		share = ringTot.Seconds() / applyTot.Seconds()
	}
	if exact {
		res.set("alg.share", share, len(traced))
		res.set("alg.max_coeff_bits", float64(last.maxBits), 1)
	} else {
		res.set("num.calls", perSolve(float64(ring.totalCalls())), len(traced))
		res.set("num.s", perSolve(ring.totalDur().Seconds()), len(traced))
		res.set("num.share", share, len(traced))
	}
	snap := last.snap
	res.set("core.unique_lookups", float64(snap.UniqueLookups), 1)
	res.set("core.unique_hit_ratio", ratio(snap.UniqueHits, snap.UniqueLookups), 1)
	res.set("core.ct_lookups", float64(snap.CTLookups), 1)
	res.set("core.ct_hit_ratio", ratio(snap.CTHits, snap.CTLookups), 1)
	res.set("core.interned_weights", float64(snap.InternedWeights), 1)
	res.set("core.peak_nodes", float64(snap.PeakNodes), 1)
	res.set("core.self_s", perSolve((applyTot - ringTot).Seconds()), len(traced))
	res.set("sim.gates", gates, 1)
	res.set("sim.apply_us.p50", quantile(applies, 0.5), len(applies))
	res.set("sim.apply_us.p99", quantile(applies, 0.99), len(applies))
	res.set("sim.allocs_per_gate", float64(allocs)/(gates*n), len(traced))
	res.set("sim.alloc_bytes_per_gate", float64(allocB)/(gates*n), len(traced))
	res.set("sim.state_err", last.stateErr, 1)
	var base []float64
	for _, st := range untraced[1:] {
		base = append(base, st.dur.Seconds())
	}
	res.set("trace.overhead_share", median(durs)/median(base)-1, len(traced))
	res.set("latency_ms.p50", median(base)*1e3, len(base))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
