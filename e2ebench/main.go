// Command e2ebench is the end-to-end benchmark of the MHETA pipeline:
// instrumented iteration, model, distribution search and emulated
// verification, and the mheta-serve front end over them. It times calls
// into each layer's public functions from outside; see README.md for the
// workloads and the layer-to-metric map. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload paper-pipeline --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// and the spans are written to --spans-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"mheta/internal/stats"
)

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansOut string
	out      io.Writer // standard output
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// minUnits is the fewest units a batch workload times, whatever
// --seconds says: two, so a traced run has one traced and one untraced.
const minUnits = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report gathers one run's outcome: the operation counts behind
// error_rate (failed / attempted), and the metrics.
type report struct {
	attempted, failed int
	problems          []string
	e2eM, layerM      map[string]metric
	samples           map[string]int
	modelErr          []float64 // §5.2.1 difference of each verified point, %
}

func newReport() *report {
	return &report{e2eM: map[string]metric{}, layerM: map[string]metric{}, samples: map[string]int{}}
}

// op counts one attempted operation, failed when err is non-nil (an
// error, a refusal or a wrong output).
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

func (r *report) e2e(name string, v float64, unit string)   { r.e2eM[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.layerM[name] = metric{v, unit} }

// layerShares records each layer's self time over the traced units and
// its share of those units' end-to-end wall time.
func (r *report) layerShares(tr *tracer) {
	self, wall := tr.layerTimes()
	for _, l := range layers {
		r.layer("layer."+l+".self_s", self[l], "s")
		share := 0.0
		if wall > 0 {
			share = 100 * self[l] / wall
		}
		r.layer("layer."+l+".share_pct", share, "%")
	}
}

// overhead records how much slower traced units ran than untraced ones.
func (r *report) overhead(untraced, traced []float64) {
	if len(untraced) > 0 && len(traced) > 0 {
		r.layer("trace.overhead_pct", 100*(stats.Median(traced)/stats.Median(untraced)-1), "%")
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-pipeline, wide-cluster or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spansOut := fs.String("spans-out", "", "traced run: span file (default .bench_build/e2ebench/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spansOut: *spansOut, out: stdout}
	if cfg.spansOut == "" {
		cfg.spansOut = fmt.Sprintf(".bench_build/e2ebench/spans-%s.json", cfg.workload)
	}
	in, err := genInputs(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}

	rep := newReport()
	switch cfg.workload {
	case "serve-mix":
		err = runServe(cfg, in, rep)
	default:
		err = runBatch(cfg, in, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	rep.layer("mem.max_rss_mb", maxRSSMB(), "MB")

	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"search_workers": searchWorkers, "serve_connections": serveConns, "serve_burst_procs": burstProcs, "setup_reps": setupReps(cfg.workload),
	}
	printJSONLine(stdout, "# env", env)
	printJSONLine(stdout, "# samples", rep.samples)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED:", p)
	}
	fmt.Fprintf(stdout, "# error_rate %d/%d\n", rep.failed, rep.attempted)

	res := result{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metric{}}
	src := rep.e2eM
	names := e2eNames
	if cfg.trace {
		src, names = rep.layerM, layerNames
	}
	for _, n := range names {
		m, ok := src[n.name]
		if !ok {
			m = metric{0, n.unit} // the workload does not exercise this layer
		}
		res.Metrics[n.name] = m
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSONLine(w io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprint(v))
	}
	fmt.Fprintln(w, prefix, string(b))
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
