// Command qtune performs the per-application ε fine-tuning that the paper
// identifies as the hidden cost of numerical QMDDs: it sweeps candidate
// tolerances over a workload, accepts the largest ε meeting the size and
// accuracy budgets, and reports the total tuning time next to the
// tuning-free exact algebraic run.
//
// Usage examples:
//
//	qtune -alg grover -n 8
//	qtune -alg bwt -depth 5 -steps 24 -max-nodes 500 -maxerror 1e-10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/algorithms"
	"repro/internal/bench"
	"repro/internal/buildinfo"
	"repro/internal/circuit"
)

func main() {
	var (
		algName  = flag.String("alg", "grover", "workload: grover, bwt, dj, bv")
		n        = flag.Int("n", 8, "grover/dj/bv: input qubits")
		depth    = flag.Int("depth", 5, "bwt: tree depth")
		steps    = flag.Int("steps", 24, "bwt: walk steps")
		maxNodes = flag.Int("max-nodes", 0, "node budget (default: 4× the exact size)")
		maxErr   = flag.Float64("maxerror", 1e-10, "final-state error budget")
		epsFlag  = flag.String("eps", "1e-3,1e-5,1e-10,1e-13,1e-15", "candidate tolerances, largest first")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the whole tuning session (0 = none); partial trials are reported on expiry")
		parallel = flag.Int("parallel", 0, "worker pool for the candidate trials, each on private managers (0 = GOMAXPROCS, 1 = sequential); the trial table is identical for every setting")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("qtune", buildinfo.Read())
		return
	}

	var c *circuit.Circuit
	switch *algName {
	case "grover":
		c = algorithms.Grover(*n, uint64(1)<<uint(*n)-2, 0)
	case "bwt":
		c = algorithms.BWT(*depth, *steps)
	case "dj":
		c = algorithms.DeutschJozsa(*n, uint64(1)<<uint(*n)-2)
	case "bv":
		c = algorithms.BernsteinVazirani(*n, uint64(1)<<uint(*n)-2)
	default:
		fmt.Fprintf(os.Stderr, "qtune: unknown workload %q\n", *algName)
		os.Exit(1)
	}
	var candidates []float64
	for _, part := range strings.Split(*epsFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qtune: bad -eps entry %q: %v\n", part, err)
			os.Exit(1)
		}
		candidates = append(candidates, v)
	}

	fmt.Printf("tuning ε for %s (%d qubits, %d gates), budgets: error ≤ %.0e\n",
		c.Name, c.N, c.Len(), *maxErr)

	// The run governor: SIGINT or -timeout cancels the tuning session; the
	// trials completed so far are still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	budget := *maxNodes
	if budget == 0 {
		budget = -1 // resolved after the reference run below
	}
	tune := func(maxNodes int) (*bench.TuneResult, error) {
		res, err := bench.TuneWith(ctx, c, bench.TuneParams{
			Candidates: candidates,
			MaxNodes:   maxNodes,
			MaxError:   *maxErr,
			Parallel:   *parallel,
		})
		// Per-worker pool stats go to stderr so the trial report on stdout
		// stays byte-identical across -parallel settings.
		if res != nil && len(res.Workers) > 0 {
			fmt.Fprint(os.Stderr, bench.WorkerReport(res.Workers))
		}
		return res, err
	}

	// First pass with a provisional huge budget to learn the exact size.
	res, err := tune(chooseBudget(budget))
	if stopped(err) {
		fmt.Printf("qtune: tuning stopped early (%v); partial trials below\n", err)
		fmt.Print(res.Report())
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtune:", err)
		os.Exit(1)
	}
	if budget == -1 {
		// Re-evaluate acceptance against 4× the exact size.
		res, err = tune(4 * res.AlgebraicNodes)
		if stopped(err) {
			fmt.Printf("qtune: tuning stopped early (%v); partial trials below\n", err)
			fmt.Print(res.Report())
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qtune:", err)
			os.Exit(1)
		}
		fmt.Printf("node budget: 4 × exact size = %d\n", 4*res.AlgebraicNodes)
	}
	fmt.Print(res.Report())
}

// stopped reports whether the tuning session ended through the governor
// (SIGINT or -timeout) rather than through a genuine failure.
func stopped(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func chooseBudget(b int) int {
	if b <= 0 {
		return 1 << 30
	}
	return b
}
