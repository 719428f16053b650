package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/qasm"
	"repro/internal/server"
)

// batch-variants settings. Each batch is an exact Grover search whose
// marked element and initial basis state no earlier batch in the run used,
// plus batchVariants Clifford+T phase suffixes, so every batch simulates its
// prefix once, checkpoints it, and warm-starts its variants from the
// checkpoint. Every batchCheckEvery-th batch has one variant re-run cold as
// a single job after the timed window; the checked variant rotates from one
// sampled batch to the next.
const (
	batchQubits     = 8
	batchVariants   = 8
	batchTopK       = 16
	batchCheckEvery = 8
	warmBatchCount  = 4
	heapAfterBatch  = 59
)

// batchInput is one generated batch.
type batchInput struct {
	body     []byte
	variants []string // base+suffix programs, for the cold re-runs
	gates    int      // gates per variant
	qubits   int      // register width after lowering
}

// batchGen generates the run's batches from the seed: batch i gets the
// i-th (marked element, initial state) pair of a seeded permutation, and
// suffix patterns numbered from a seeded offset, so no two batches of a run
// share a base or a suffix.
type batchGen struct {
	perm   []int
	offset int
}

func newBatchGen(seed int64) *batchGen {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << uint(batchQubits)
	return &batchGen{perm: rng.Perm(n * n), offset: rng.Intn(1 << 20)}
}

func (g *batchGen) batch(i int) (*batchInput, error) {
	if i >= len(g.perm) {
		return nil, fmt.Errorf("batch %d exceeds the %d distinct bases", i, len(g.perm))
	}
	n := 1 << uint(batchQubits)
	marked, init := g.perm[i]%n, g.perm[i]/n
	c := circuit.New("grover", batchQubits)
	for q := 0; q < batchQubits; q++ {
		if init>>uint(q)&1 == 1 {
			c.X(q)
		}
	}
	for _, gt := range algorithms.Grover(batchQubits, uint64(marked), 0).Gates {
		c.Append(gt)
	}
	low, err := load.Lower(c)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, low); err != nil {
		return nil, err
	}
	base := sb.String()
	header := fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", low.N)
	in := &batchInput{gates: low.Len() + batchQubits, qubits: low.N}
	var suffixes []string
	for v := 0; v < batchVariants; v++ {
		gates := suffixGates(g.offset + i*batchVariants + v)
		suffixes = append(suffixes, header+gates)
		in.variants = append(in.variants, base+gates)
	}
	in.body, err = json.Marshal(engine.BatchRequest{Base: base, Suffixes: suffixes,
		Representation: "alg", TopK: batchTopK, Wait: true})
	return in, err
}

// suffixGates spells k in base 4 as one phase gate per data qubit.
func suffixGates(k int) string {
	names := [4]string{"s", "t", "z", "sdg"}
	var sb strings.Builder
	for q := 0; q < batchQubits; q++ {
		fmt.Fprintf(&sb, "%s q[%d];\n", names[k%4], q)
		k /= 4
	}
	return sb.String()
}

// batchView is the part of a batch's wire view the benchmark reads.
type batchView struct {
	ID       string   `json:"id"`
	Status   string   `json:"status"`
	Prefix   *jobView `json:"prefix"`
	Variants []struct {
		Job   *jobView        `json:"job"`
		Error json.RawMessage `json:"error"`
	} `json:"variants"`
}

// batchOutcome is what the benchmark keeps of one completed batch: its
// timing, its jobs' timestamps and its answers' digests. The request and
// the results are dropped as soon as the batch has answered, so the live
// heap read during the loop is the program's, not the generator's.
type batchOutcome struct {
	index      int
	gates      int // gates per variant
	sent, done time.Time
	cpu        time.Duration // process CPU time while the batch was in flight
	err        error
	nodes      int                 // final-state nodes summed over the variants
	digests    [][sha256.Size]byte // one per variant
	jobs       []*jobView          // prefix and variants, results dropped
}

// newBatchOutcome checks a batch's answer and keeps its summary.
func newBatchOutcome(index, gates int, sent, done time.Time, v *batchView, err error) *batchOutcome {
	o := &batchOutcome{index: index, gates: gates, sent: sent, done: done, err: err}
	if o.err == nil && (v.Status != engine.StatusDone || len(v.Variants) != batchVariants) {
		o.err = fmt.Errorf("batch %s: status %s with %d variants", v.ID, v.Status, len(v.Variants))
	}
	if o.err != nil {
		return o
	}
	for _, vr := range v.Variants {
		j := vr.Job
		if j == nil || j.Status != engine.StatusDone || j.Result == nil {
			o.err = fmt.Errorf("batch %s: a variant failed: %s", v.ID, vr.Error)
			return o
		}
		o.nodes += j.Result.StateNodes
		o.digests = append(o.digests, j.Result.digest())
	}
	o.jobs = append(o.jobs, v.Prefix)
	for _, vr := range v.Variants {
		o.jobs = append(o.jobs, vr.Job)
	}
	for _, j := range o.jobs {
		if j != nil {
			j.Result = nil
		}
	}
	return o
}

// closedLoop sends batch 0, 1, 2, … from one client, each when the previous
// one has answered, until d has passed. One client, because the router
// places each batch by its prefix: with two, whether two batches in flight
// share a worker is a coin toss per batch, and the median batch time would
// sit between the shared and unshared cases. It also returns the live heap
// after batch heapAfterBatch, or at the end if the run stops sooner: the
// result cache grows with every batch, so a heap read at the end would
// depend on how many batches the run managed.
func closedLoop(cl *http.Client, url string, gen *batchGen, d time.Duration) ([]*batchOutcome, float64, error) {
	end := time.Now().Add(d)
	var outs []*batchOutcome
	heap := 0.0
	for i := 0; time.Now().Before(end); i++ {
		in, err := gen.batch(i)
		if err != nil {
			return nil, 0, err
		}
		var v batchView
		sent, cpu0 := time.Now(), processCPU()
		err = postJSON(context.Background(), cl, url+"/v1/batches", in.body, &v)
		o := newBatchOutcome(i, in.gates, sent, time.Now(), &v, err)
		o.cpu = processCPU() - cpu0
		outs = append(outs, o)
		if i == heapAfterBatch {
			heap = liveHeapMB()
		}
	}
	if heap == 0 {
		heap = liveHeapMB()
	}
	return outs, heap, nil
}

// batchStats reduces one window of batches.
type batchStats struct {
	latency     []float64
	cpu         []float64
	variants    int
	nodes       []float64
	wait, serv  []float64
	variantGate int
	sampled     []*batchOutcome
}

func reduceBatches(outs []*batchOutcome, res *result, tr *tracer) *batchStats {
	bs := &batchStats{}
	for _, o := range outs {
		res.attempted++
		if o.err != nil {
			res.fail(o.err)
			continue
		}
		bs.latency = append(bs.latency, ms(o.done.Sub(o.sent)))
		bs.cpu = append(bs.cpu, ms(o.cpu))
		bs.variants += batchVariants
		bs.variantGate += batchVariants * o.gates
		bs.nodes = append(bs.nodes, float64(o.nodes))
		if o.index%batchCheckEvery == 0 {
			bs.sampled = append(bs.sampled, o)
		}
		root := tr.add(0, "loadgen.batch", o.sent, o.done)
		for _, j := range o.jobs {
			if j == nil {
				continue
			}
			w, s, ok := engineTimes(j)
			if !ok {
				continue
			}
			bs.wait = append(bs.wait, w)
			bs.serv = append(bs.serv, s)
			id := tr.add(root, "server.job", j.QueuedAt, *j.FinishedAt)
			tr.add(id, "engine.queue", j.QueuedAt, *j.StartedAt)
			tr.add(id, "engine.service", *j.StartedAt, *j.FinishedAt)
		}
	}
	return bs
}

// warmBatches sends warmBatchCount batches built from the far end of the
// seeded permutation, which the timed batches never reach, so both workers
// have warm managers and the client has open connections before timing.
func warmBatches(client *http.Client, url string, gen *batchGen) error {
	for k := 0; k < warmBatchCount; k++ {
		in, err := gen.batch(len(gen.perm) - 1 - k)
		if err != nil {
			return err
		}
		var v batchView
		if err := postJSON(context.Background(), client, url+"/v1/batches", in.body, &v); err != nil {
			return fmt.Errorf("warm-up batch: %w", err)
		}
		if v.Status != engine.StatusDone {
			return fmt.Errorf("warm-up batch %s: status %s", v.ID, v.Status)
		}
	}
	return nil
}

// checkCold re-runs one variant of every sampled batch as a single job on
// a fresh engine without a cache and compares the answers. The variant
// rotates over the sampled batches, so every suffix position is checked;
// its program is generated again from the batch's index.
func checkCold(gen *batchGen, sampled []*batchOutcome, res *result) error {
	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer eng.Shutdown(time.Minute)
	for _, o := range sampled {
		in, err := gen.batch(o.index)
		if err != nil {
			return err
		}
		v := coldVariant(o.index)
		j, serr := eng.Submit(engine.JobRequest{QASM: in.variants[v], Representation: "alg", TopK: batchTopK})
		if serr != nil {
			return fmt.Errorf("cold re-run: %s", serr.Body.Message)
		}
		<-j.Done()
		raw, err := json.Marshal(j.View(true))
		if err != nil {
			return err
		}
		var cold jobView
		if err := json.Unmarshal(raw, &cold); err != nil {
			return err
		}
		if cold.Result == nil {
			res.fail(fmt.Errorf("cold re-run of batch %d variant %d: status %s: %s", o.index, v, cold.Status, cold.Error))
			continue
		}
		if cold.Result.digest() != o.digests[v] {
			res.fail(fmt.Errorf("batch %d variant %d differs from its cold single-job run", o.index, v))
		}
	}
	return nil
}

// coldVariant is the variant checkCold re-runs for the sampled batch index:
// consecutive sampled batches take consecutive suffix positions.
func coldVariant(index int) int { return (index / batchCheckEvery) % batchVariants }

func runBatch(cfg runConfig, res *result) error {
	client := newClient()
	defer client.CloseIdleConnections()
	gen := newBatchGen(cfg.seed)
	var setups []float64
	var cl *cluster
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.close()
			client.CloseIdleConnections()
		}
		cpu0 := processCPU()
		var err error
		if cl, err = startCluster(server.Config{CacheBytes: serveCacheMB << 20, MaxJobs: serveMaxJobs}, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := warmBatches(client, cl.url, gen); err != nil {
			cl.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (processCPU() - cpu0).Seconds())
	}
	defer cl.close()
	res.set("setup_s", median(setups), len(setups))
	first, err := gen.batch(0)
	if err != nil {
		return err
	}
	res.size("qubits", first.qubits)
	res.size("variant_gates", first.gates)
	res.size("variants_per_batch", batchVariants)
	res.size("workers", clusterWorkers)
	res.size("connections", 1)

	before, err := cl.snapshot(client)
	if err != nil {
		return err
	}
	t0 := time.Now()
	outs, heap, err := closedLoop(client, cl.url, gen, cfg.duration)
	if err != nil {
		return err
	}
	took := time.Since(t0)
	bs := reduceBatches(outs, res, cfg.tracer)
	after, err := cl.snapshot(client)
	if err != nil {
		return err
	}
	if err := checkCold(gen, bs.sampled, res); err != nil {
		return err
	}
	if !cfg.trace {
		res.set("cpu_ms.p50", quantile(bs.cpu, 0.5), len(bs.cpu))
		res.set("peak_heap_mb", heap, 1)
		res.set("final_nodes", quantile(bs.nodes, 0.5), len(bs.nodes))
		return nil
	}
	setLayerCounters(res, before, after)
	res.set("latency_ms.p50", quantile(bs.latency, 0.5), len(bs.latency))
	res.set("loadgen.throughput_per_s", float64(bs.variants)/took.Seconds(), len(bs.latency))
	res.set("prefix.skip_share", (after.gatesSkipped-before.gatesSkipped)/float64(max(bs.variantGate, 1)), 1)
	res.set("engine.queue_wait_ms.p50", quantile(bs.wait, 0.5), len(bs.wait))
	res.set("engine.queue_wait_ms.p99", quantile(bs.wait, 0.99), len(bs.wait))
	res.set("engine.service_ms.p50", quantile(bs.serv, 0.5), len(bs.serv))
	res.set("engine.service_ms.p99", quantile(bs.serv, 0.99), len(bs.serv))
	res.set("loadgen.sent", float64(len(outs)), 1)
	res.set("trace.overhead_share", cfg.tracer.spent().Seconds()/took.Seconds(), 1)
	return nil
}
