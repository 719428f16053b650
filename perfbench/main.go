// Command perfbench is the repository's benchmark: it runs one named
// workload at one seed for a fixed time, checks that the program's outputs
// are correct, and prints every metric with its unit. See README.md.
//
//	perfbench --workload gse-alg --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line before it
// is the run's report (host, toolchain, sizes and sample counts). Set-up or
// correctness failures exit non-zero.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	tracer   *tracer // non-nil exactly when trace is set
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured run time per invocation")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if cfg.trace {
		cfg.tracer = newTracer()
	}
	res := newResult()
	var err error
	switch cfg.workload {
	case wGSEAlg:
		err = runSim(cfg, gseInstance, res)
	case wBWTFloat:
		err = runSim(cfg, bwtInstance, res)
	case wServeHot:
		err = runServeHot(cfg, res)
	case wBatch:
		err = runBatch(cfg, res)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		if path, err := cfg.tracer.writeFile(cfg.workload, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		} else {
			res.info["trace_file"] = path
		}
	}
	if err := res.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

// result collects one run's metrics, the sample count behind each, and the
// correctness tally.
type result struct {
	values    map[string]float64
	samples   map[string]int
	sizes     map[string]int
	info      map[string]any
	attempted int
	failed    int
	failures  []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, sizes: map[string]int{}, info: map[string]any{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *result) size(name string, v int) { r.sizes[name] = v }

// fail records a failed unit of work; the first few reasons go to stderr.
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report line and then the result line. The result holds
// every metric of the run's kind: a per-layer metric a workload does not
// exercise reads 0.
func (r *result) print(w io.Writer, cfg runConfig) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if r.attempted == 0 {
		return fmt.Errorf("no unit of work was attempted")
	}
	r.set("run.fail_frac", float64(r.failed)/float64(r.attempted), r.attempted)
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !cfg.trace && r.failed == 0 {
			return fmt.Errorf("workload %s did not produce end-to-end metric %s", cfg.workload, d.Name)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	bi := buildinfo.Read()
	samples := map[string]int{}
	for _, d := range defs {
		if n, ok := r.samples[d.Name]; ok {
			samples[d.Name] = n
		}
	}
	report := map[string]any{
		"report":     "perfbench",
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.duration.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitOf(bi),
		"sizes":      r.sizes,
		"samples":    samples,
		"failures":   r.failures,
	}
	for k, v := range r.info {
		report[k] = v
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	line, err = json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// commitOf names the measured source: the VCS revision when the binary was
// built in a checkout that has one, else a digest of the module's Go
// sources and go.mod (the working directory is the repository root).
func commitOf(bi buildinfo.Info) string {
	if bi.Revision != "" {
		if bi.Modified {
			return bi.Revision + "+modified"
		}
		return bi.Revision
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// median and quantile use linear interpolation between order statistics.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}
