package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/qasm"
	"repro/internal/ring"
	"repro/internal/server"
)

// serve-hot settings. The catalog is load.Catalog (Grover, BWT and GSE ×
// exact and two float tolerances) at a scale whose warm-up simulates all
// nine entries in a fraction of a second; after the warm-up every entry is
// cached, so the timed phases are cache reads through the router.
const (
	serveTopK    = 16
	serveZipfS   = 1.3
	serveCacheMB = 256
	// serveMaxJobs bounds each worker's retained job records. Every record
	// holds its request's QASM, so with the default (1024) the live heap
	// keeps growing through a run of this length; at this bound it levels
	// off within the first phase and peak_heap_mb reads a steady state.
	serveMaxJobs = 256
	// serveLimitMS is the p99 latency limit a rate must meet, timed from
	// each request's due time, to count towards loadgen.max_rate_rps.
	serveLimitMS = 50
	// hopProbes is how many requests the traced run sends both via the
	// router and directly to the owning worker.
	hopProbes = 200
)

// serveRates are the traced run's fixed offered rates, requests per
// second. A 2-CPU host serves about 900; loadgen.latency_ms.p99 is read at
// the middle rate, a tenth of that. The top rate is well above capacity,
// and loadgen.throughput_per_s is the completion rate there.
var serveRates = [3]float64{40, 100, 5000}

// callerShare is the part of a traced run given to the caller loop that
// the end-to-end run measures; the open-loop rates share the rest.
const callerShare = 4

func catalogParams() bench.FigureParams {
	return bench.FigureParams{GroverQubits: 6, BWTDepth: 3, BWTSteps: 8,
		GSEPhaseBits: 2, GSETrotter: 1, GSESKDepth: 1, SynthNetLen: 10}
}

// arrival is one scheduled request.
type arrival struct {
	due   time.Duration // offset from the phase start
	entry int
}

// schedule draws a Poisson arrival process at rate r for d, each arrival
// picking a catalog entry from a zipf distribution over n entries in
// catalog order.
func schedule(rng *rand.Rand, r float64, d time.Duration, n int) []arrival {
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(n-1))
	var out []arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / r
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, entry: int(z.Uint64())})
	}
}

// callerLoop is one caller that sends a request when the previous one has
// answered, until d has passed; each request picks a catalog entry from
// the same zipf distribution as the open loop. Its latency counts from the
// send, which is when the request was due, and its CPU time is the
// process's over the same interval: router, worker and caller, and the
// collector's work that overlaps it.
func callerLoop(cl *http.Client, url string, bodies [][]byte, rng *rand.Rand, start time.Time, d time.Duration) []outcome {
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(len(bodies)-1))
	var out []outcome
	for end := start.Add(d); time.Now().Before(end); {
		o := outcome{arrival: arrival{entry: int(z.Uint64())}}
		o.sent = time.Now()
		o.due = o.sent
		cpu0 := processCPU()
		o.err = postJSON(context.Background(), cl, url+"/v1/jobs", bodies[o.entry], &o.view)
		o.cpu = processCPU() - cpu0
		o.done = time.Now()
		out = append(out, o)
	}
	return out
}

// outcome is what the generator saw for one arrival.
type outcome struct {
	arrival
	due, sent, done time.Time
	cpu             time.Duration // callerLoop only
	unsent          bool          // still unsent when the phase ended: backlog
	view            jobView
	err             error
}

// openLoop sends each arrival at its due time over at most nproc
// connections: one sender per connection takes the next arrival in order,
// waits until it is due and sends it. A request that cannot be sent on time
// because every sender is busy goes out late, and its latency still counts
// from its due time. Arrivals not yet sent when the phase ends are marked
// unsent.
func openLoop(cl *http.Client, url string, bodies [][]byte, arr []arrival, start time.Time, d time.Duration) []outcome {
	out := make([]outcome, len(arr))
	end := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				o := &out[i]
				o.arrival = arr[i]
				o.due = start.Add(arr[i].due)
				if time.Now().After(end) {
					o.unsent = true
					continue
				}
				time.Sleep(time.Until(o.due))
				o.sent = time.Now()
				o.err = postJSON(context.Background(), cl, url+"/v1/jobs", bodies[arr[i].entry], &o.view)
				o.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// serveState is one set-up of the serve-hot workload.
type serveState struct {
	cl     *cluster
	cat    []load.Workload
	bodies [][]byte
	ref    [][sha256.Size]byte
	nodes  int
}

func setupServeHot(client *http.Client) (*serveState, error) {
	cat, err := load.Catalog(catalogParams())
	if err != nil {
		return nil, err
	}
	st := &serveState{cat: cat}
	for _, w := range cat {
		b, err := json.Marshal(engine.JobRequest{QASM: w.QASM, Representation: w.Repr, Eps: w.Eps,
			TopK: serveTopK, Seed: w.Seed, Wait: true})
		if err != nil {
			return nil, err
		}
		st.bodies = append(st.bodies, b)
	}
	// One worker owns the BWT circuit, the other Grover and GSE, in every
	// run: which worker serves which share of the mix sets both latency and
	// capacity. The catalog lists each circuit's three representations
	// together.
	var keys [][]byte
	for i := 0; i < len(cat); i += len(cat) / 3 {
		c, err := qasm.Parse(cat[i].QASM, cat[i].Name)
		if err != nil {
			return nil, err
		}
		fp := circuit.Fingerprint(c)
		keys = append(keys, fp[:])
	}
	placed := func(owner func(int) string) bool {
		return owner(0) != owner(1) && owner(0) == owner(2)
	}
	place := func(r *ring.Ring) bool {
		return placed(func(i int) string { return r.Owner(keys[i]) })
	}
	if st.cl, err = startCluster(server.Config{CacheBytes: serveCacheMB << 20, MaxJobs: serveMaxJobs}, place); err != nil {
		return nil, err
	}
	if !placed(func(i int) string { return st.cl.rt.OwnerOf(cat[i*len(cat)/3].QASM) }) {
		st.cl.close()
		return nil, fmt.Errorf("the router places the catalog differently from the ring the benchmark computed")
	}
	// Warm-up: every entry once, simulated by its owner and cached there.
	for i, b := range st.bodies {
		var v jobView
		if err := postJSON(context.Background(), client, st.cl.url+"/v1/jobs", b, &v); err != nil {
			st.cl.close()
			return nil, fmt.Errorf("warm-up %s: %w", cat[i].Name, err)
		}
		if v.Status != engine.StatusDone || v.Result == nil {
			st.cl.close()
			return nil, fmt.Errorf("warm-up %s: status %s: %s", cat[i].Name, v.Status, v.Error)
		}
		st.ref = append(st.ref, v.Result.digest())
		st.nodes += v.Result.StateNodes
	}
	return st, nil
}

// phaseStats reduces one rate's outcomes, checking every answer against the
// warm-up digest of its catalog entry.
type phaseStats struct {
	rate                 float64
	latency, late        []float64
	cpu                  []float64
	overhead, wait, serv []float64
	sent, completed      int
	unsent               int
	cached               int
	perSecond            []float64 // completions in each whole second of the phase
}

func reducePhase(rate float64, start time.Time, d time.Duration, outs []outcome, ref [][sha256.Size]byte, res *result, tr *tracer) *phaseStats {
	ps := &phaseStats{rate: rate, perSecond: make([]float64, int(d/time.Second))}
	for i := range outs {
		o := &outs[i]
		if o.unsent {
			ps.unsent++
			continue
		}
		res.attempted++
		ps.sent++
		switch {
		case o.err != nil:
			res.fail(o.err)
			continue
		case o.view.Status != engine.StatusDone || o.view.Result == nil:
			res.fail(fmt.Errorf("job %s: status %s: %s", o.view.ID, o.view.Status, o.view.Error))
			continue
		case o.view.Result.digest() != ref[o.entry]:
			res.fail(fmt.Errorf("job %s: result differs from the warm-up result of catalog entry %d", o.view.ID, o.entry))
			continue
		}
		ps.completed++
		if w := int(o.done.Sub(start) / time.Second); w < len(ps.perSecond) {
			ps.perSecond[w]++
		}
		ps.latency = append(ps.latency, ms(o.done.Sub(o.due)))
		ps.cpu = append(ps.cpu, ms(o.cpu))
		ps.late = append(ps.late, ms(o.sent.Sub(o.due)))
		v := &o.view
		if v.Cached {
			ps.cached++
		}
		if v.FinishedAt != nil {
			ps.overhead = append(ps.overhead, ms(o.done.Sub(o.sent)-v.FinishedAt.Sub(v.QueuedAt)))
		}
		if w, s, ok := engineTimes(v); ok {
			ps.wait = append(ps.wait, w)
			ps.serv = append(ps.serv, s)
		}
		id := tr.add(0, "loadgen.request", o.due, o.done)
		if v.FinishedAt != nil {
			job := tr.add(id, "server.job", v.QueuedAt, *v.FinishedAt)
			if v.StartedAt != nil {
				tr.add(job, "engine.queue", v.QueuedAt, *v.StartedAt)
				tr.add(job, "engine.service", *v.StartedAt, *v.FinishedAt)
			}
		}
	}
	return ps
}

// meets reports whether a phase kept its p99 within the limit and sent
// every arrival on time (no growing backlog).
func (ps *phaseStats) meets() bool {
	return ps.unsent == 0 && len(ps.latency) > 0 &&
		quantile(ps.latency, 0.99) <= serveLimitMS && quantile(ps.late, 0.99) <= serveLimitMS
}

func runServeHot(cfg runConfig, res *result) error {
	client := newClient()
	defer client.CloseIdleConnections()
	var setups []float64
	var st *serveState
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.cl.close()
			client.CloseIdleConnections()
		}
		cpu0 := processCPU()
		var err error
		if st, err = setupServeHot(client); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - cpu0).Seconds())
	}
	defer st.cl.close()
	res.set("setup_s", median(setups), len(setups))
	res.size("catalog_entries", len(st.cat))
	res.size("workers", clusterWorkers)
	res.size("connections", 1)

	rng := rand.New(rand.NewSource(cfg.seed))
	// The end-to-end run is one caller for the whole run: a request is sent
	// when the previous one has answered, so the process's CPU time over a
	// request is that request's alone, and the process never idles between
	// requests (an idle process measures how fast the host wakes it; see
	// README.md). The traced run gives the caller a quarter of its time,
	// for the layer breakdown of the same traffic, and offers each
	// open-loop rate for a third of the rest, for the capacity and
	// max-rate figures.
	callD := cfg.duration
	if cfg.trace {
		callD = cfg.duration / callerShare
	}
	before, err := st.cl.snapshot(client)
	if err != nil {
		return err
	}
	start := time.Now()
	outs := callerLoop(client, st.cl.url, st.bodies, rng, start, callD)
	caller := reducePhase(0, start, callD, outs, st.ref, res, cfg.tracer)
	if !cfg.trace {
		res.set("cpu_ms.p50", quantile(caller.cpu, 0.5), len(caller.cpu))
		res.set("peak_heap_mb", liveHeapMB(), 1)
		res.set("final_nodes", float64(st.nodes), len(st.cat))
		return nil
	}
	res.size("open_loop_connections", runtime.NumCPU())
	var phases []*phaseStats
	phase := (cfg.duration - callD) / time.Duration(len(serveRates))
	for _, r := range serveRates {
		arr := schedule(rng, r, phase, len(st.cat))
		start := time.Now()
		outs := openLoop(client, st.cl.url, st.bodies, arr, start, phase)
		phases = append(phases, reducePhase(r, start, phase, outs, st.ref, res, cfg.tracer))
	}
	after, err := st.cl.snapshot(client)
	if err != nil {
		return err
	}
	mid, top := phases[1], phases[2]
	sent := caller.sent
	for _, ps := range phases {
		sent += ps.sent
	}
	// The median over whole seconds of the saturated phase: one disturbed
	// second moves it less than it moves the total.
	res.set("loadgen.throughput_per_s", median(top.perSecond), len(top.perSecond))
	setLayerCounters(res, before, after)
	maxRate := 0.0
	for _, ps := range phases {
		if ps.meets() && ps.rate > maxRate {
			maxRate = ps.rate
		}
	}
	res.set("loadgen.latency_ms.p99", quantile(mid.latency, 0.99), len(mid.latency))
	res.set("loadgen.late_ms.p99", quantile(mid.late, 0.99), len(mid.late))
	res.set("loadgen.max_rate_rps", maxRate, len(phases))
	res.set("loadgen.sent", float64(sent), 1)
	// The server and engine figures describe the caller's traffic, the one
	// cpu_ms.p50 is measured on.
	res.set("latency_ms.p50", quantile(caller.latency, 0.5), len(caller.latency))
	res.set("server.overhead_ms.p50", quantile(caller.overhead, 0.5), len(caller.overhead))
	res.set("server.overhead_ms.p99", quantile(caller.overhead, 0.99), len(caller.overhead))
	res.set("engine.queue_wait_ms.p50", quantile(caller.wait, 0.5), len(caller.wait))
	res.set("engine.queue_wait_ms.p99", quantile(caller.wait, 0.99), len(caller.wait))
	res.set("engine.service_ms.p50", quantile(caller.serv, 0.5), len(caller.serv))
	res.set("engine.service_ms.p99", quantile(caller.serv, 0.99), len(caller.serv))
	res.set("engine.cached_share", float64(caller.cached)/float64(max(caller.completed, 1)), caller.completed)
	res.set("trace.overhead_share", cfg.tracer.spent().Seconds()/cfg.duration.Seconds(), 1)
	hop, n, err := routerHop(client, st)
	if err != nil {
		return err
	}
	res.set("router.hop_ms.p50", hop, n)
	return nil
}

// routerHop times the same requests via the router and directly to the
// worker the router would pick (Router.OwnerOf), alternating the two, and
// returns the difference of the medians.
func routerHop(client *http.Client, st *serveState) (float64, int, error) {
	var via, direct []float64
	for i := 0; i < hopProbes; i++ {
		e := i % len(st.cat)
		for _, url := range []string{st.cl.url, st.cl.rt.OwnerOf(st.cat[e].QASM)} {
			var v jobView
			t0 := time.Now()
			if err := postJSON(context.Background(), client, url+"/v1/jobs", st.bodies[e], &v); err != nil {
				return 0, 0, fmt.Errorf("router hop probe: %w", err)
			}
			d := ms(time.Since(t0))
			if url == st.cl.url {
				via = append(via, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(via) - median(direct), hopProbes, nil
}
