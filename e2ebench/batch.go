package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"mheta"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/obs"
	"mheta/internal/sched"
	"mheta/internal/stats"
	"mheta/internal/validate"
)

// opResult is what one search plus its verification produced; every
// later unit must reproduce the first unit's values exactly.
type opResult struct {
	Best   []int
	Time   float64 // predicted seconds of Best
	Evals  int
	Actual float64 // emulated seconds of Best
	Events uint64
	Sends  uint64
	Err    error
}

// batchAcc sums the per-layer figures of the traced units.
type batchAcc struct {
	units                   int
	collectS                float64
	collectRounds           int
	searchS                 map[string]float64
	evals                   int
	deltaHit, deltaFull     int64
	memoHit, memoMiss       int64
	poolWorker              [searchWorkers]int64
	execS                   float64
	events, sends           uint64
	runs                    int
	mallocs, bytes          uint64
	microbenchS, iterationS float64
	predictUS               []float64
	proportionalUS          []float64
}

// batch runs paper-pipeline (collection inside each unit) and
// wide-cluster (collection in set-up).
type batch struct {
	in            *inputs
	rep           *report
	collectInUnit bool

	specs  []cluster.Spec
	apps   []*exec.App
	models []*core.Model
	params []core.Params // Collect's output per job, for the split check
	first  [][]opResult
	acc    batchAcc
}

func runBatch(cfg runConfig, in *inputs, rep *report) error {
	b := &batch{in: in, rep: rep, collectInUnit: cfg.workload == "paper-pipeline",
		acc: batchAcc{searchS: map[string]float64{}}}
	n := len(in.Jobs)
	b.specs, b.apps = make([]cluster.Spec, n), make([]*exec.App, n)
	b.models, b.params = make([]*core.Model, n), make([]core.Params, n)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []float64
	for i := 0; i < setupReps(cfg.workload); i++ {
		var t *tracer
		if i == 0 {
			t = tr
		}
		c0 := cpuTime()
		if err := b.setup(t); err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	b.rep.e2e("setup_s", stats.Median(setups), "s")
	b.rep.samples["setup"] = len(setups)

	// Units alternate traced and untraced in a traced run, so the same
	// process measures the tracing overhead.
	var walls, tracedWalls, cpus []float64
	start := time.Now()
	for u := 0; time.Since(start) < cfg.duration() || u < minUnits; u++ {
		var t *tracer
		if cfg.trace && u%2 == 0 {
			t = tr
		}
		// Every unit starts from a collected heap, so garbage left by
		// set-up or by the previous unit is not charged to it.
		runtime.GC()
		c0 := cpuTime()
		wall, res := b.unit(t, u)
		cpu := cpuTime() - c0
		b.check(u, res)
		if t != nil {
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else {
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, cpu.Seconds())
		}
	}
	b.rep.samples["units"] = len(walls) + len(tracedWalls)
	printJSONLine(cfg.out, "# unit_wall_s", walls)
	printJSONLine(cfg.out, "# unit_cpu_s", cpus)
	b.rep.e2e("heap_retained_mb", retainedMB(), "MB")
	if cfg.trace {
		b.rep.layer("unit.wall_s", stats.Median(append(append([]float64(nil), walls...), tracedWalls...)), "s")
		b.probes(tr)
		b.layerMetrics(tr, walls, tracedWalls)
		return tr.write(cfg.spansOut)
	}
	b.rep.e2e("cpu_ms", 1e3*stats.Median(cpus), "ms")
	return nil
}

// setup builds the applications and, for wide-cluster, instruments them.
// For paper-pipeline it runs the same flow once at test scale, so lazy
// initialisation and caches are warm before timing.
func (b *batch) setup(tr *tracer) error {
	root := tr.begin("bench.setup", -1, -1)
	defer tr.end(root)
	for ji, job := range b.in.Jobs {
		spec, err := job.spec()
		if err != nil {
			return err
		}
		app, err := job.build(experiments.ScalePaper)
		if err != nil {
			return err
		}
		b.specs[ji], b.apps[ji] = spec, app
		if b.collectInUnit {
			small, err := job.build(experiments.ScaleTest)
			if err != nil {
				return err
			}
			m, err := mheta.Instrument(spec, small, job.Seed)
			if err != nil {
				return err
			}
			best := mheta.SearchGBS(spec, small, m)
			if _, err := mheta.RunActual(spec, small, best.Best, job.VerifySeed); err != nil {
				return err
			}
			continue
		}
		c0 := time.Now()
		p, m, err := collect(tr, root, -1, spec, app, job.Seed)
		if err != nil {
			return err
		}
		if tr != nil {
			b.acc.collectS += time.Since(c0).Seconds()
		}
		if b.models[ji] != nil {
			var err error
			if !reflect.DeepEqual(p, b.params[ji]) {
				err = fmt.Errorf("%s: repeated collection gave different parameters", job.App)
			}
			b.rep.op(err)
		}
		b.models[ji], b.params[ji] = m, p
	}
	if tr != nil && !b.collectInUnit {
		b.acc.collectRounds++
	}
	return nil
}

// collect is instrument.Collect under Blk followed by core.NewModel: the
// mheta.Instrument path, with each call spanned.
func collect(tr *tracer, parent, op int, spec cluster.Spec, app *exec.App, seed uint64) (core.Params, *core.Model, error) {
	id := tr.begin("instrument.Collect", parent, op)
	p, err := instrument.Collect(spec, app, mheta.BlockDistribution(app, spec), seed, mheta.DefaultNoise)
	tr.end(id)
	if err != nil {
		return p, nil, err
	}
	id = tr.begin("core.NewModel", parent, op)
	m, err := core.NewModel(p)
	tr.end(id)
	return p, m, err
}

// unit runs every job's searches and verifications once (collecting
// first on paper-pipeline) and returns the wall time it took.
func (b *batch) unit(tr *tracer, op int) (time.Duration, [][]opResult) {
	t0 := time.Now()
	root := tr.begin("bench.unit", -1, op)
	res := make([][]opResult, len(b.in.Jobs))
	for ji, job := range b.in.Jobs {
		spec, app, model := b.specs[ji], b.apps[ji], b.models[ji]
		res[ji] = make([]opResult, len(job.Algs))
		if b.collectInUnit {
			c0 := time.Now()
			p, m, err := collect(tr, root, op, spec, app, job.Seed)
			if err != nil {
				for ai := range res[ji] {
					res[ji][ai].Err = fmt.Errorf("%s: collect: %w", job.App, err)
				}
				continue
			}
			if tr != nil {
				b.acc.collectS += time.Since(c0).Seconds()
			}
			model = m
			if b.params[ji].Program == "" {
				b.params[ji], b.models[ji] = p, m
			}
		}
		for ai, alg := range job.Algs {
			res[ji][ai] = b.searchAndVerify(tr, root, op, job, spec, app, model, alg)
		}
	}
	tr.end(root)
	if tr != nil {
		b.acc.units++
		if b.collectInUnit {
			b.acc.collectRounds++
		}
	}
	return time.Since(t0), res
}

func (b *batch) searchAndVerify(tr *tracer, root, op int, job appJob, spec cluster.Spec, app *exec.App, model *core.Model, alg string) opResult {
	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
	}
	s0 := time.Now()
	id := tr.begin("search."+alg, root, op)
	sr, err := mheta.SearchWithOptions(alg, spec, app, model, job.SearchSeed,
		mheta.SearchOptions{Workers: job.Workers, Metrics: reg})
	tr.end(id)
	if err != nil {
		return opResult{Err: fmt.Errorf("%s/%s: search: %w", job.App, alg, err)}
	}
	searchS := time.Since(s0).Seconds()

	var st sched.Stats
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	e0 := time.Now()
	id = tr.begin("exec.Run", root, op)
	w := mpi.NewWorld(spec, job.VerifySeed, mheta.DefaultNoise)
	rr, err := exec.Run(w, app, sr.Best, exec.Options{EventStats: &st})
	tr.end(id)
	execS := time.Since(e0).Seconds()
	if tr != nil {
		runtime.ReadMemStats(&m1)
		a := &b.acc
		a.searchS[alg] += searchS
		a.evals += sr.Evaluations
		snap := counters(reg)
		a.deltaHit += snap["search.delta.hit"]
		a.deltaFull += snap["search.delta.full"]
		a.memoHit += snap["search.memo.hits"]
		a.memoMiss += snap["search.memo.misses"]
		for wk := range a.poolWorker {
			a.poolWorker[wk] += snap[fmt.Sprintf("search.pool.worker.%02d.evals", wk)]
		}
		a.execS += execS
		a.events += st.Events
		a.sends += st.Sends
		a.runs++
		a.mallocs += m1.Mallocs - m0.Mallocs
		a.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	if err != nil {
		return opResult{Err: fmt.Errorf("%s/%s: verify: %w", job.App, alg, err)}
	}
	return opResult{Best: sr.Best, Time: sr.Time, Evals: sr.Evaluations, Actual: rr.Time, Events: st.Events, Sends: st.Sends}
}

// check is the correctness oracle of one unit.
func (b *batch) check(u int, res [][]opResult) {
	if b.first == nil {
		b.first = res
	}
	for ji, job := range b.in.Jobs {
		for ai, alg := range job.Algs {
			r := res[ji][ai]
			if r.Err != nil {
				b.rep.op(r.Err)
				continue
			}
			b.rep.op(b.checkOne(job, ji, alg, r, b.first[ji][ai], u))
			if u == 0 {
				b.rep.modelErr = append(b.rep.modelErr, 100*stats.PercentDiff(r.Time, r.Actual))
			}
		}
	}
}

func (b *batch) checkOne(job appJob, ji int, alg string, r, first opResult, u int) error {
	// The search's score of its best distribution is the model's.
	if pred := b.models[ji].Predict(r.Best).Total; math.Float64bits(pred) != math.Float64bits(r.Time) {
		return fmt.Errorf("%s/%s: search time %v, Predict(best) %v", job.App, alg, r.Time, pred)
	}
	// The emulated run of the best distribution is within the committed
	// per-point budget of §5.2.1's difference.
	class := validate.ClassAdversarial
	if alg == mheta.AlgGBS {
		class = validate.ClassSpectrum
	}
	budget := validate.BudgetFor(job.App, class).PerPoint
	if diff := stats.PercentDiff(r.Time, r.Actual); !(diff <= budget) {
		return fmt.Errorf("%s/%s: predicted %v, emulated %v: difference %.4f over budget %.2f", job.App, alg, r.Time, r.Actual, diff, budget)
	}
	// Every unit repeats the first exactly.
	if u > 0 && !reflect.DeepEqual(r, first) {
		return fmt.Errorf("%s/%s: unit %d differs from unit 0: %+v vs %+v", job.App, alg, u, r, first)
	}
	return nil
}

// probes run after the timed units of a traced run: the instrumentation
// split, checked against Collect's output, and full Predict timing.
func (b *batch) probes(tr *tracer) {
	root := tr.begin("bench.probe", -1, -1)
	defer tr.end(root)
	for ji, job := range b.in.Jobs {
		mb, it, err := checkSplit(tr, root, b.specs[ji], b.apps[ji], job.Seed, b.params[ji])
		b.rep.op(err)
		b.acc.microbenchS += mb
		b.acc.iterationS += it
		b.acc.predictUS = append(b.acc.predictUS, predictMicros(tr, root, b.models[ji], b.specs[ji], b.apps[ji]))
		b.acc.proportionalUS = append(b.acc.proportionalUS, proportionalMicros(tr, root, b.specs[ji].N(), b.apps[ji].Prog.GlobalElems(), job.Seed))
	}
}

// checkSplit reproduces instrument.Collect from its public pieces —
// MicroBenchNet and MicroBenchDisk on one world, the instrumented
// iteration (exec.Run in ModeInstrument) on another, then Extract — and
// checks the parameters equal want. It returns the micro-benchmark and
// instrumented-iteration seconds.
func checkSplit(tr *tracer, parent int, spec cluster.Spec, app *exec.App, seed uint64, want core.Params) (mb, it float64, err error) {
	base := mheta.BlockDistribution(app, spec)
	t0 := time.Now()
	id := tr.begin("instrument.MicroBench", parent, -1)
	mbw := mpi.NewWorld(spec, seed^0xA5A5A5A5, mheta.DefaultNoise)
	net := instrument.MicroBenchNet(mbw, 24)
	disks := instrument.MicroBenchDisk(mbw, 24)
	tr.end(id)
	t1 := time.Now()
	id = tr.begin("instrument.iteration", parent, -1)
	iw := mpi.NewWorld(spec, seed^0x5A5A5A5A, mheta.DefaultNoise)
	res, err := exec.Run(iw, app, base, exec.Options{Mode: exec.ModeInstrument})
	tr.end(id)
	t2 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	got, err := instrument.Extract(spec, app.Prog, base, net, disks, res.Recorders)
	if err != nil {
		return 0, 0, err
	}
	if !reflect.DeepEqual(got, want) {
		return 0, 0, fmt.Errorf("%s: split instrumentation differs from Collect", app.Prog.Name)
	}
	return t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
}

// predictMicros is the mean wall time of a full Model.Predict over the
// scenario's SpectrumFull points, repeated for at least 20 ms.
func predictMicros(tr *tracer, parent int, m *core.Model, spec cluster.Spec, app *exec.App) float64 {
	var bpe int64
	for _, v := range app.Prog.DistributedVars() {
		bpe += v.ElemBytes
	}
	pts := dist.SpectrumFull(app.Prog.GlobalElems(), spec, bpe, 4)
	id := tr.begin("core.Predict", parent, -1)
	defer tr.end(id)
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < 20*time.Millisecond {
		for _, p := range pts {
			m.Predict(p.Dist)
		}
		calls += len(pts)
	}
	return float64(time.Since(t0).Microseconds()) / float64(calls)
}

// proportionalMicros is the mean wall time of dist.Proportional, the
// weights-to-distribution step the stochastic searches take for every
// candidate, over n random weights, repeated for at least 20 ms.
func proportionalMicros(tr *tracer, parent, n, total int, seed uint64) float64 {
	r := &rng{s: seed}
	ws := make([][]float64, 16)
	for i := range ws {
		ws[i] = make([]float64, n)
		for k := range ws[i] {
			ws[i][k] = r.float()
		}
	}
	id := tr.begin("dist.Proportional", parent, -1)
	defer tr.end(id)
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < 20*time.Millisecond {
		for _, w := range ws {
			dist.Proportional(total, w)
		}
		calls += len(ws)
	}
	return float64(time.Since(t0).Microseconds()) / float64(calls)
}

func (b *batch) layerMetrics(tr *tracer, walls, tracedWalls []float64) {
	a, r := &b.acc, b.rep
	units := float64(a.units)
	r.layer("instrument.collect_s", a.collectS/float64(max(a.collectRounds, 1)), "s")
	r.layer("instrument.microbench_s", a.microbenchS, "s")
	r.layer("instrument.iteration_s", a.iterationS, "s")
	predictUS := stats.Mean(a.predictUS)
	r.layer("core.predict_us", predictUS, "us")
	r.layer("search.proportional_us", stats.Mean(a.proportionalUS), "us")
	r.layer("search.delta_hit_pct", pct(a.deltaHit, a.deltaHit+a.deltaFull), "%")
	var searchTotal float64
	for _, alg := range []string{"gbs", "genetic", "annealing", "random"} {
		r.layer("search."+alg+"_s", a.searchS[alg]/units, "s")
		searchTotal += a.searchS[alg]
	}
	r.layer("search.total_s", searchTotal/units, "s")
	r.layer("search.evals", float64(a.evals)/units, "count")
	r.layer("search.memo_hit_pct", pct(a.memoHit, a.memoHit+a.memoMiss), "%")
	var poolTotal int64
	for _, n := range a.poolWorker {
		poolTotal += n
	}
	for wk, n := range a.poolWorker {
		r.layer(fmt.Sprintf("search.pool_busy_pct.w%02d", wk), pct(n, poolTotal), "%")
	}
	if searchTotal > 0 {
		r.layer("search.outside_model_pct", 100*(1-float64(a.evals)*predictUS*1e-6/searchTotal), "%")
	}
	r.layer("exec.run_s", a.execS/units, "s")
	r.layer("exec.events", float64(a.events)/units, "count")
	r.layer("exec.sends", float64(a.sends)/units, "count")
	if a.events > 0 {
		r.layer("exec.ns_per_event", 1e9*a.execS/float64(a.events), "ns")
	}
	if a.runs > 0 {
		r.layer("exec.allocs_per_run", float64(a.mallocs)/float64(a.runs), "count")
		r.layer("exec.bytes_per_run", float64(a.bytes)/float64(a.runs), "B")
	}
	r.layer("model.err_pct", stats.Mean(r.modelErr), "%")
	r.layerShares(tr)
	r.overhead(walls, tracedWalls)
}

func counters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] = c.Value
	}
	return out
}

func pct(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}
