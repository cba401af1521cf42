package main

import (
	"encoding/json"
	"fmt"

	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
)

// Fixed sizes. Worker and connection counts are constants, never derived
// from the machine, so a figure names the same work on every runner.
const (
	wideRanks       = 1024 // cluster.HY2(wideRanks) for wide-cluster
	wideRowsPerRank = 4
	wideCols        = 64
	searchWorkers   = 2 // evaluation-pool size of the wide-cluster searches
	serveConns      = 2 // client connections of serve-mix
	burstProcs      = 1 // GOMAXPROCS during serve-mix's untraced bursts

	// wideSearchSeed seeds wide-cluster's stochastic searches. It is an
	// algorithm parameter, held fixed so that every run does the same
	// amount of search work; --seed varies the measured scenario.
	wideSearchSeed = 0x5EED
)

// setupReps is how many times a run sets up; setup_s is the median.
// The sub-second set-ups repeat more, so one slow start does not move
// the median.
func setupReps(workload string) int {
	if workload == "wide-cluster" {
		return 3
	}
	return 9
}

// serveRates is the open-loop ladder of serve-mix in requests per
// second, lowest first; its top step is where the predict latencies are
// taken. The top step is about 65-80% of the closed-loop capacity the
// bursts measured (serve.capacity_rps, 16-20k requests/s on 2 vCPUs),
// so the ladder reaches near saturation.
var serveRates = []int{2000, 4000, 8000, 13000}

// rng is splitmix64: small, seedable and identical on every platform.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// appJob is one application taken through the paper's flow: instrument
// under Blk, search with each of Algs, and emulate every best
// distribution.
type appJob struct {
	App    string `json:"app"`    // experiments builder name
	Config string `json:"config"` // Table 1 configuration
	Ranks  int    `json:"ranks"`  // 8 (Table 1) or wideRanks
	// Rows, Cols and Iterations override the paper-scale size when Rows
	// is non-zero (wide-cluster's few rows per rank).
	Rows       int      `json:"rows,omitempty"`
	Cols       int      `json:"cols,omitempty"`
	Iterations int      `json:"iterations,omitempty"`
	Seed       uint64   `json:"seed"`        // instrumentation seed
	SearchSeed uint64   `json:"search_seed"` // seed of the stochastic searches
	VerifySeed uint64   `json:"verify_seed"` // emulation seed of the verification runs
	Algs       []string `json:"algs"`
	Workers    int      `json:"workers"` // search evaluation-pool size
}

// spec is the job's cluster: a Table 1 configuration as cluster.Named
// builds it, or HY2 widened to Ranks nodes for wide-cluster.
func (j appJob) spec() (cluster.Spec, error) {
	switch {
	case j.Ranks == wideRanks && j.Config == "HY2":
		return cluster.HY2(j.Ranks), nil
	case j.Ranks == 8:
		return cluster.Named(j.Config)
	}
	return cluster.Spec{}, fmt.Errorf("no %s cluster of %d nodes", j.Config, j.Ranks)
}

func (j appJob) build(scale experiments.Scale) (*exec.App, error) {
	if j.Rows == 0 {
		b, err := experiments.BuilderByName(j.App)
		if err != nil {
			return nil, err
		}
		return b.Build(scale), nil
	}
	switch j.App {
	case "jacobi":
		cfg := apps.DefaultJacobiConfig()
		cfg.Rows, cfg.Cols, cfg.Iterations = j.Rows, j.Cols, j.Iterations
		return apps.NewJacobi(cfg), nil
	case "rna":
		cfg := apps.DefaultRNAConfig()
		cfg.Rows, cfg.Cols, cfg.Iterations = j.Rows, j.Cols, j.Iterations
		return apps.NewRNA(cfg), nil
	}
	return nil, fmt.Errorf("no wide sizing for app %q", j.App)
}

// scenario is a serve-mix scenario as the wire names it.
type scenario struct {
	App    string `json:"app"`
	Config string `json:"config"`
	Scale  string `json:"scale"`
	Seed   uint64 `json:"seed"`
}

// kind is the endpoint a serve-mix request names.
type kind uint8

const (
	predictKind kind = iota
	searchKind
)

func (k kind) String() string {
	if k == searchKind {
		return "search"
	}
	return "predict"
}

// searchAlgs are the algorithms serve-mix's /search requests name.
var searchAlgs = []string{"gbs", "annealing"}

// request is one generated serve-mix request. It holds no pointers: its
// distribution and body sit in its list's flat arrays.
type request struct {
	Kind     kind   `json:"kind"`
	Scenario int    `json:"scenario"`       // index into serveInputs.Scenarios
	Alg      int    `json:"alg"`            // a search's index into searchAlgs
	Cold     bool   `json:"cold,omitempty"` // a never-seen seed (cold engine build)
	Dist     [2]int `json:"dist"`           // [from, to) in requestList.Dists; empty for Blk
	Body     [2]int `json:"body"`           // [from, to) in requestList.Bodies
}

func (q request) alg() string { return searchAlgs[q.Alg] }

// requestList is one list of generated requests: a ladder step or a
// burst. The distributions and bodies of all its requests sit in two
// flat arrays, so the list holds three pointers, not some per request,
// and a garbage collection during a measurement does not spend its time
// marking the benchmark's own traffic.
type requestList struct {
	Reqs   []request `json:"reqs"`
	Dists  []int     `json:"dists"`
	Bodies []byte    `json:"bodies"`
}

func (l *requestList) dist(k int) []int { d := l.Reqs[k].Dist; return l.Dists[d[0]:d[1]] }

func (l *requestList) body(k int) []byte { b := l.Reqs[k].Body; return l.Bodies[b[0]:b[1]] }

// add appends q, naming distribution d, with its wire body for sc.
func (l *requestList) add(sc scenario, q request, d []int) error {
	body, err := requestBody(sc, d, q)
	if err != nil {
		return err
	}
	q.Dist = [2]int{len(l.Dists), len(l.Dists) + len(d)}
	l.Dists = append(l.Dists, d...)
	q.Body = [2]int{len(l.Bodies), len(l.Bodies) + len(body)}
	l.Bodies = append(l.Bodies, body...)
	l.Reqs = append(l.Reqs, q)
	return nil
}

// serveInputs is the whole serve-mix traffic: warm scenarios, the cold
// scenarios some predicts name, and one request list per ladder step.
type serveInputs struct {
	Scenarios []scenario    `json:"scenarios"` // the first Warm are warmed in setup
	Warm      int           `json:"warm"`
	Rates     []int         `json:"rates"`
	StepSecs  float64       `json:"step_seconds"`
	Steps     []requestList `json:"steps"`
	Bursts    []requestList `json:"bursts"` // burstsPerStep closed-loop bursts in each step
}

// inputs is everything a workload is given. Its JSON encoding is the
// byte-identity the tests compare across generations from one seed.
type inputs struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Jobs     []appJob     `json:"jobs,omitempty"`
	Serve    *serveInputs `json:"serve,omitempty"`
}

// Traffic mix of serve-mix, per predict request unless stated.
const (
	hotPerScenario = 16   // repeated distributions per warm scenario
	hotShare       = 0.75 // share of warm predicts naming a repeated distribution
	searchEvery    = 100  // one /search per this many requests
	coldPerStep    = 2    // predicts per ladder step naming a never-seen seed

	// burstsPerStep is how many closed-loop bursts each ladder step is
	// broken by. The bursts give serve-mix its CPU figure, and many small
	// ones spread over the whole run keep one slow stretch of the host
	// from setting it.
	burstsPerStep = 10
)

func genInputs(workload string, seed uint64, runSeconds int) (*inputs, error) {
	in := &inputs{Workload: workload, Seed: seed}
	r := &rng{s: seed}
	switch workload {
	case "paper-pipeline":
		// One Table 1 configuration per application, covering all four.
		for _, ac := range [][2]string{{"jacobi", "HY1"}, {"cg", "DC"}, {"lanczos", "IO"}, {"rna", "HY2"}, {"multigrid", "DC"}} {
			s := r.next()
			in.Jobs = append(in.Jobs, appJob{App: ac[0], Config: ac[1], Ranks: 8, Seed: s, SearchSeed: s,
				VerifySeed: s ^ 0xACDC, Algs: []string{"gbs"}, Workers: 1})
		}
	case "wide-cluster":
		algs := []string{"gbs", "genetic", "annealing", "random"}
		for _, a := range []struct {
			app   string
			iters int
		}{{"jacobi", 4}, {"rna", 3}} {
			s := r.next()
			in.Jobs = append(in.Jobs, appJob{App: a.app, Config: "HY2", Ranks: wideRanks,
				Rows: wideRowsPerRank * wideRanks, Cols: wideCols, Iterations: a.iters,
				Seed: s, SearchSeed: wideSearchSeed, VerifySeed: s ^ 0xACDC, Algs: algs, Workers: searchWorkers})
		}
	case "serve-mix":
		si, err := genServe(r, runSeconds)
		if err != nil {
			return nil, err
		}
		in.Serve = si
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper-pipeline, wide-cluster or serve-mix)", workload)
	}
	return in, nil
}

func genServe(r *rng, runSeconds int) (*serveInputs, error) {
	si := &serveInputs{Rates: serveRates, StepSecs: float64(runSeconds) / float64(len(serveRates))}
	for _, ac := range [][2]string{{"jacobi", "HY1"}, {"cg", "DC"}, {"lanczos", "IO"}, {"rna", "HY2"}} {
		si.Scenarios = append(si.Scenarios, scenario{App: ac[0], Config: ac[1], Scale: "test", Seed: r.next() >> 2})
	}
	si.Warm = len(si.Scenarios)
	hot := make([][][]int, si.Warm)
	totals := make([]int, si.Warm)
	for i, sc := range si.Scenarios {
		total, err := scenarioTotal(sc)
		if err != nil {
			return nil, err
		}
		totals[i] = total
		for h := 0; h < hotPerScenario; h++ {
			hot[i] = append(hot[i], randomDist(r, total, 8))
		}
	}
	// warm draws the k-th request of a list from the warm mix: a search
	// every searchEvery requests, otherwise a predict naming a repeated
	// distribution (hotShare of them) or a fresh one.
	warm := func(k int) (request, []int) {
		sc := r.intn(si.Warm)
		if k%searchEvery == searchEvery/2 {
			return request{Kind: searchKind, Scenario: sc, Alg: r.intn(len(searchAlgs))}, nil
		}
		if r.float() < hotShare {
			return request{Kind: predictKind, Scenario: sc}, hot[sc][r.intn(hotPerScenario)]
		}
		return request{Kind: predictKind, Scenario: sc}, randomDist(r, totals[sc], 8)
	}
	for _, rate := range si.Rates {
		n := int(float64(rate) * si.StepSecs)
		cold := map[int]bool{}
		for len(cold) < coldPerStep && len(cold) < n {
			cold[r.intn(n)] = true
		}
		var l requestList
		for k := 0; k < n; k++ {
			q, d := warm(k)
			if cold[k] {
				// A seed no other request names: the server must build a
				// fresh engine (instrumentation) before it can answer.
				sc := si.Scenarios[q.Scenario]
				sc.Seed = r.next()>>2 | 1<<62 // warm seeds keep bit 62 clear
				si.Scenarios = append(si.Scenarios, sc)
				q, d = request{Kind: predictKind, Scenario: len(si.Scenarios) - 1, Cold: true}, nil
			}
			if err := l.add(si.Scenarios[q.Scenario], q, d); err != nil {
				return nil, err
			}
		}
		si.Steps = append(si.Steps, l)
	}
	// The closed-loop bursts are together twice as many requests as the
	// top step. They are drawn fresh from the warm mix, so the bursts'
	// fresh distributions are memo misses too.
	bursts := len(si.Rates) * burstsPerStep
	n := max(1, 2*int(float64(si.Rates[len(si.Rates)-1])*si.StepSecs)/bursts)
	for range bursts {
		var l requestList
		for k := 0; k < n; k++ {
			q, d := warm(k)
			if err := l.add(si.Scenarios[q.Scenario], q, d); err != nil {
				return nil, err
			}
		}
		si.Bursts = append(si.Bursts, l)
	}
	return si, nil
}

// requestBody is the wire body of q, naming distribution d, for sc.
func requestBody(sc scenario, d []int, q request) ([]byte, error) {
	seed := sc.Seed
	wire := struct {
		App    string  `json:"app"`
		Config string  `json:"config"`
		Scale  string  `json:"scale"`
		Seed   *uint64 `json:"seed"`
		Dist   []int   `json:"dist,omitempty"`
		Alg    string  `json:"alg,omitempty"`
	}{sc.App, sc.Config, sc.Scale, &seed, d, ""}
	if q.Kind == searchKind {
		wire.Alg = q.alg()
	}
	return json.Marshal(wire)
}

func scenarioTotal(sc scenario) (int, error) {
	b, err := experiments.BuilderByName(sc.App)
	if err != nil {
		return 0, err
	}
	s, err := experiments.ParseScale(sc.Scale)
	if err != nil {
		return 0, err
	}
	return b.Build(s).Prog.GlobalElems(), nil
}

// randomDist draws a distribution of total elements over n nodes with
// every node owning at least one element.
func randomDist(r *rng, total, n int) []int {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.2 + r.float()
	}
	d := dist.Proportional(total-n, w)
	for i := range d {
		d[i]++
	}
	return d
}
