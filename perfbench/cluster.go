package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/server"
)

// clusterWorkers is the worker count behind the router; each worker runs
// one engine worker, so simulations on a worker run one at a time.
const clusterWorkers = 2

// cluster is qrouter in front of clusterWorkers qmddd workers, all in this
// process on loopback listeners, peered with each other as qmddd -peers
// would be.
type cluster struct {
	workers []*server.Server
	urls    []string
	rt      *router.Router
	url     string
	https   []*http.Server
	wg      sync.WaitGroup
}

// maxPlacementTries bounds the search for listener addresses whose ring
// placement a workload accepts.
const maxPlacementTries = 256

// startCluster starts the workers and the router. The router shards jobs
// over a consistent-hash ring of the workers' URLs, and loopback ports are
// assigned at random, so which worker owns which circuit would change from
// run to run. When place is non-nil, listener sets are drawn until place
// accepts the ring over their worker URLs, which makes the placement a
// workload needs the same in every run.
func startCluster(cfg server.Config, place func(*ring.Ring) bool) (*cluster, error) {
	c := &cluster{}
	var ls []net.Listener
	closeAll := func() {
		for _, l := range ls {
			l.Close()
		}
	}
	for try := 0; ; try++ {
		if try == maxPlacementTries {
			return nil, fmt.Errorf("no listener addresses in %d tries gave the required ring placement", try)
		}
		ls, c.urls = nil, nil
		for i := 0; i <= clusterWorkers; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("listening: %w", err)
			}
			ls = append(ls, l)
		}
		for _, l := range ls[:clusterWorkers] {
			c.urls = append(c.urls, "http://"+l.Addr().String())
		}
		if place == nil || place(ring.New(c.urls, ring.DefaultVNodes)) {
			break
		}
		closeAll()
	}
	for i := 0; i < clusterWorkers; i++ {
		wc := cfg
		wc.Workers = 1
		wc.Self = c.urls[i]
		wc.Peers = c.urls
		s, err := server.New(wc)
		if err != nil {
			closeAll()
			c.close()
			return nil, fmt.Errorf("starting worker: %w", err)
		}
		c.workers = append(c.workers, s)
		c.serve(s, ls[i])
	}
	// The router probes every worker in New, so the workers serve first.
	rt, err := router.New(router.Config{Workers: c.urls})
	if err != nil {
		closeAll()
		c.close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	c.rt = rt
	c.url = "http://" + ls[clusterWorkers].Addr().String()
	c.serve(rt, ls[clusterWorkers])
	return c, nil
}

func (c *cluster) serve(h http.Handler, l net.Listener) {
	hs := &http.Server{Handler: h}
	c.https = append(c.https, hs)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = hs.Serve(l) // returns http.ErrServerClosed after close
	}()
}

// close stops the router's prober, the HTTP servers and the engines, and
// waits for every serving goroutine to return. It tolerates a partly
// started cluster.
func (c *cluster) close() {
	if c.rt != nil {
		c.rt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(c.https) - 1; i >= 0; i-- {
		_ = c.https[i].Shutdown(ctx) // a straggler past the timeout is closed below
		_ = c.https[i].Close()
	}
	for _, w := range c.workers {
		w.Shutdown(5 * time.Second)
	}
	c.wg.Wait()
}

// newClient returns an HTTP client that opens at most one connection per
// CPU to any host: the load generator's connection limit.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
	}}
}

// jobView is the part of a job's wire view the benchmark reads.
type jobView struct {
	ID         string          `json:"id"`
	Status     string          `json:"status"`
	Cached     bool            `json:"cached"`
	QueuedAt   time.Time       `json:"queued_at"`
	StartedAt  *time.Time      `json:"started_at"`
	FinishedAt *time.Time      `json:"finished_at"`
	Error      json.RawMessage `json:"error"`
	Result     *jobResult      `json:"result"`
}

// jobResult holds the deterministic part of a job result: timings and
// manager statistics are left out so that digests compare answers only.
type jobResult struct {
	Qubits     int             `json:"qubits"`
	Gates      int             `json:"gates"`
	Norm2      float64         `json:"norm2"`
	StateNodes int             `json:"state_nodes"`
	Amplitudes json.RawMessage `json:"amplitudes"`
	Histogram  json.RawMessage `json:"histogram"`
	DDIO       string          `json:"ddio"`
}

func (r *jobResult) digest() [sha256.Size]byte {
	b, _ := json.Marshal(r) // plain struct of marshalable fields
	return sha256.Sum256(b)
}

// postJSON posts body to url and decodes a 200 response into out.
func postJSON(ctx context.Context, cl *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %.200s", url, resp.Status, raw)
	}
	return json.Unmarshal(raw, out)
}

// scrape fetches a Prometheus text exposition and sums every sample of
// each metric name over its labels.
func scrape(cl *http.Client, url string) (map[string]float64, error) {
	resp, err := cl.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// counters is a snapshot of the serving layers' cumulative counters,
// read through the engines' accessors and the router's and workers'
// /metrics.
type counters struct {
	at             time.Time
	jobsStarted    float64
	deduped        float64
	peerHits       float64
	prefixHits     float64
	gatesSkipped   float64
	checkpoints    float64
	checkpointB    float64
	cacheHits      float64
	cacheMisses    float64
	cacheDiskHits  float64
	cacheStores    float64
	cacheEvictions float64
	cacheBytes     float64
	busyS          float64
	routed         float64
	rerouted       float64
	shed           float64
	proxyErrors    float64
}

func (c *cluster) snapshot(cl *http.Client) (counters, error) {
	s := counters{at: time.Now()}
	for i, w := range c.workers {
		e := w.Engine()
		s.jobsStarted += float64(e.JobsStarted())
		s.deduped += float64(e.Deduped())
		s.peerHits += float64(e.PeerHits())
		s.prefixHits += float64(e.PrefixHits())
		s.gatesSkipped += float64(e.PrefixGatesSkipped())
		s.checkpoints += float64(e.CheckpointsStored())
		s.checkpointB += float64(e.CheckpointBytesStored())
		cs := e.CacheStats()
		s.cacheHits += float64(cs.Hits)
		s.cacheMisses += float64(cs.Misses)
		s.cacheDiskHits += float64(cs.DiskHits)
		s.cacheStores += float64(cs.Stores)
		s.cacheEvictions += float64(cs.Evictions + cs.DiskEvictions)
		s.cacheBytes += float64(cs.Bytes)
		m, err := scrape(cl, c.urls[i])
		if err != nil {
			return s, err
		}
		s.busyS += m["qmddd_worker_busy_seconds_total"]
	}
	m, err := scrape(cl, c.url)
	if err != nil {
		return s, err
	}
	s.routed = m["qrouter_routed_total"]
	s.rerouted = m["qrouter_rerouted_total"]
	s.shed = m["qrouter_shed_latency_total"] + m["qrouter_shed_tenant_total"] + m["qrouter_no_worker_total"]
	s.proxyErrors = m["qrouter_proxy_errors_total"]
	return s, nil
}

// setLayerCounters reports the serving layers' counter deltas between two
// snapshots. qcache.bytes is the level at the end.
func setLayerCounters(res *result, a, b counters) {
	res.set("router.routed", b.routed-a.routed, 1)
	res.set("router.rerouted", b.rerouted-a.rerouted, 1)
	res.set("router.shed", b.shed-a.shed, 1)
	res.set("router.proxy_errors", b.proxyErrors-a.proxyErrors, 1)
	res.set("engine.jobs_started", b.jobsStarted-a.jobsStarted, 1)
	res.set("engine.deduped", b.deduped-a.deduped, 1)
	res.set("engine.busy_share", (b.busyS-a.busyS)/(b.at.Sub(a.at).Seconds()*clusterWorkers), 1)
	hits, misses := b.cacheHits-a.cacheHits, b.cacheMisses-a.cacheMisses
	if hits+misses > 0 {
		res.set("qcache.hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	res.set("qcache.disk_hits", b.cacheDiskHits-a.cacheDiskHits, 1)
	res.set("qcache.stores", b.cacheStores-a.cacheStores, 1)
	res.set("qcache.evictions", b.cacheEvictions-a.cacheEvictions, 1)
	res.set("qcache.bytes", b.cacheBytes, 1)
	res.set("qcache.peer_hits", b.peerHits-a.peerHits, 1)
	res.set("prefix.hits", b.prefixHits-a.prefixHits, 1)
	res.set("prefix.checkpoints_stored", b.checkpoints-a.checkpoints, 1)
	res.set("prefix.checkpoint_bytes", b.checkpointB-a.checkpointB, 1)
}

// engineTimes returns a finished job's queue wait and service time in ms;
// ok is false for a job that never reached a worker (a cache hit).
func engineTimes(v *jobView) (wait, service float64, ok bool) {
	if v.StartedAt == nil || v.FinishedAt == nil {
		return 0, 0, false
	}
	return ms(v.StartedAt.Sub(v.QueuedAt)), ms(v.FinishedAt.Sub(*v.StartedAt)), true
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
