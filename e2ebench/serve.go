package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mheta"
	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/obs"
	"mheta/internal/serve"
	"mheta/internal/stats"
)

// p99Limit is the latency limit of serve-mix's goodput: a ladder step
// counts only if its predict p99, timed from when each request was due,
// stays within it and the generator's lag does not grow past it.
const p99Limit = 100 * time.Millisecond

// liveServer is a serve.Server behind net/http on a loopback port.
type liveServer struct {
	srv     *serve.Server
	reg     *obs.Registry
	hs      *http.Server
	url     string
	served  chan error
	clients []*http.Client
}

func startServer(si *serveInputs) (*liveServer, error) {
	reg := obs.New()
	srv := serve.New(serve.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, reg: reg, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1)}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	for c := 0; c < serveConns; c++ {
		// One keep-alive connection per client: the load runs over exactly
		// serveConns connections.
		ls.clients = append(ls.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	// Warm the scenarios: the first request of each builds its engine.
	for i := 0; i < si.Warm; i++ {
		body, err := requestBody(si.Scenarios[i], nil, request{})
		if err != nil {
			ls.stop()
			return nil, err
		}
		if _, err := ls.post(ls.clients[0], "/predict", body); err != nil {
			ls.stop()
			return nil, fmt.Errorf("warming %+v: %w", si.Scenarios[i], err)
		}
	}
	return ls, nil
}

// stop shuts the HTTP server and the serve.Server down and waits for
// both, then drops the client connections.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := ls.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	for _, c := range ls.clients {
		c.CloseIdleConnections()
	}
	return err
}

// post sends one request and returns the response body; any status but
// 200 is an error.
func (ls *liveServer) post(c *http.Client, path string, body []byte) ([]byte, error) {
	resp, err := c.Post(ls.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// sample is one request's outcome. lat runs from when the request was
// due to its response; svc from when it was sent; lag is how late the
// generator sent it. Like a request, it holds no pointers.
type sample struct {
	lat, svc, lag time.Duration
	total         float64 // a predict's total_s
	failed        bool
	traced        bool
}

// outcomes are the samples of one request list, with the rare errors
// and the search responses kept beside them.
type outcomes struct {
	s        []sample
	mu       sync.Mutex
	errs     map[int]error
	searches map[int]*serve.SearchResponse
}

func newOutcomes(n int) *outcomes {
	return &outcomes{s: make([]sample, n), errs: map[int]error{}, searches: map[int]*serve.SearchResponse{}}
}

// fail records that request k failed with err.
func (o *outcomes) fail(k int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.s[k].failed = true
	o.errs[k] = err
}

func (o *outcomes) err(k int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.errs[k]
}

func (o *outcomes) search(k int) *serve.SearchResponse {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.searches[k]
}

// decode keeps the one value of request k's response the oracle checks.
func (o *outcomes) decode(q request, k int, body []byte) {
	if q.Kind == searchKind {
		r := new(serve.SearchResponse)
		if err := json.Unmarshal(body, r); err != nil {
			o.fail(k, err)
			return
		}
		o.mu.Lock()
		defer o.mu.Unlock()
		o.searches[k] = r
		return
	}
	var r serve.PredictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		o.fail(k, err)
		return
	}
	o.s[k].total = r.TotalS
}

// drive sends requests from to to of l open loop at rate requests per
// second over the client connections, and records them in out. Request
// k is due at start + (k-from)/rate whether or not earlier ones have
// returned; a connection that is still busy makes it wait, and that wait
// counts in its latency. Rate 0 sends closed loop: each connection sends
// its next request as soon as the last returns.
func (ls *liveServer) drive(l *requestList, out *outcomes, from, to, rate int, tr *tracer, opBase int) {
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range ls.clients {
		wg.Add(1)
		go func(c *http.Client) { //mheta:lifecycle waitgroup
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= to {
					return
				}
				due := start
				if rate > 0 {
					due = start.Add(time.Duration(float64(k-from) * 1e9 / float64(rate)))
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				// Alternate requests are traced, so the run measures the
				// tracing overhead against its own untraced requests.
				var t *tracer
				if k%2 == 0 {
					t = tr
				}
				root := t.beginAt("loadgen.request", due, -1, opBase+k)
				sent := time.Now()
				id := t.begin("serve.http", root, opBase+k)
				body, err := ls.post(c, "/"+l.Reqs[k].Kind.String(), l.body(k))
				t.end(id)
				t.end(root)
				done := time.Now()
				out.s[k] = sample{lat: done.Sub(due), svc: done.Sub(sent), lag: sent.Sub(due), traced: t != nil}
				if err != nil {
					out.fail(k, err)
				} else {
					out.decode(l.Reqs[k], k, body)
				}
			}
		}(c)
	}
	wg.Wait()
}

// handle sends the requests of l straight to the server's ServeHTTP,
// closed loop from serveConns goroutines: each sends its next request as
// soon as the last returns. It returns before it decodes the responses,
// so that a timing around the call covers the serving alone; calling
// decode completes the outcomes.
func (ls *liveServer) handle(l *requestList) (out *outcomes, decode func()) {
	out = newOutcomes(len(l.Reqs))
	ws := make([]*bufferWriter, serveConns)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range ws {
		w := &bufferWriter{header: http.Header{}}
		ws[c] = w
		wg.Add(1)
		go func() { //mheta:lifecycle waitgroup
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(l.Reqs) {
					return
				}
				path := "/" + l.Reqs[k].Kind.String()
				req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(l.body(k)))
				if err != nil {
					out.fail(k, err)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				from := w.next()
				ls.srv.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					out.fail(k, fmt.Errorf("%s: status %d: %s", path, w.code, bytes.TrimSpace(w.buf[from:])))
					continue
				}
				w.bodies = append(w.bodies, [3]int{k, from, len(w.buf)})
			}
		}()
	}
	wg.Wait()
	return out, func() {
		for _, w := range ws {
			for _, b := range w.bodies {
				out.decode(l.Reqs[b[0]], b[0], w.buf[b[1]:b[2]])
			}
		}
	}
}

// bufferWriter is an http.ResponseWriter that appends the body of every
// response it is given to one flat buffer.
type bufferWriter struct {
	header http.Header
	code   int
	buf    []byte
	bodies [][3]int // request index, then [from, to) in buf
}

// next readies the writer for another response and returns where its
// body will start.
func (w *bufferWriter) next() int {
	clear(w.header)
	w.code = 0
	return len(w.buf)
}

func (w *bufferWriter) Header() http.Header { return w.header }

func (w *bufferWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *bufferWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.buf = append(w.buf, b...)
	return len(b), nil
}

func runServe(cfg runConfig, in *inputs, rep *report) error {
	si := in.Serve
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []float64
	var ls *liveServer
	reps := setupReps(cfg.workload)
	for i := 0; i < reps; i++ {
		c0 := cpuTime()
		s, err := startServer(si)
		if err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		if i < reps-1 {
			if err := s.stop(); err != nil {
				return err
			}
			continue
		}
		ls = s
	}
	rep.e2e("setup_s", stats.Median(setups), "s")
	rep.samples["setup"] = len(setups)

	// Closed-loop bursts of the warm mix break each ladder step into
	// parts. Untraced, a burst goes straight to the server's ServeHTTP
	// with one P: its CPU per request is the program's serving work,
	// without the loopback TCP, the HTTP client, and the runtime's
	// spinning for work on an idle second P, whose cost swings with the
	// host's load. Traced, a burst goes over the network and its wall time
	// gives the closed-loop capacity. The CPU figure is the bursts' total
	// CPU time over their requests. The figure of a single burst swings
	// between two levels on a shared host, so the total is steadier than
	// the median.
	steps := make([]*outcomes, len(si.Steps))
	bursts := make([]*outcomes, len(si.Bursts))
	var burstCPU, burstRPS []float64
	var cpuTotal time.Duration
	requests := 0
	for i := range si.Steps {
		l, opBase := &si.Steps[i], requests
		steps[i] = newOutcomes(len(l.Reqs))
		for j := 0; j < burstsPerStep; j++ {
			ls.drive(l, steps[i], j*len(l.Reqs)/burstsPerStep, (j+1)*len(l.Reqs)/burstsPerStep, si.Rates[i], tr, opBase)
			b := i*burstsPerStep + j
			burst := &si.Bursts[b]
			procs := runtime.GOMAXPROCS(0)
			if !cfg.trace {
				runtime.GOMAXPROCS(burstProcs)
			}
			var decode func()
			c0, t0 := cpuTime(), time.Now()
			if cfg.trace {
				bursts[b], decode = newOutcomes(len(burst.Reqs)), func() {}
				ls.drive(burst, bursts[b], 0, len(burst.Reqs), 0, nil, 0)
			} else {
				bursts[b], decode = ls.handle(burst)
			}
			cpu, wall := cpuTime()-c0, time.Since(t0)
			runtime.GOMAXPROCS(procs)
			cpuTotal += cpu
			burstCPU = append(burstCPU, 1e3*cpu.Seconds()/float64(len(burst.Reqs)))
			burstRPS = append(burstRPS, float64(len(burst.Reqs))/wall.Seconds())
			decode()
			requests += len(burst.Reqs)
		}
		requests += len(l.Reqs)
	}
	burstReqs := len(si.Bursts) * len(si.Bursts[0].Reqs)
	rep.samples["burst"] = burstReqs
	fmt.Fprintf(cfg.out, "# bursts: %.4f ms CPU per request\n", burstCPU)
	goroutines := runtime.NumGoroutine()
	var handlerUS []float64
	if cfg.trace {
		handlerUS = replayHandler(ls.srv, si, steps)
	}

	o := newOracle(si)
	for i := range si.Steps {
		for k := range si.Steps[i].Reqs {
			rep.op(o.check(&si.Steps[i], k, steps[i]))
		}
	}
	for i := range si.Bursts {
		for k := range si.Bursts[i].Reqs {
			rep.op(o.check(&si.Bursts[i], k, bursts[i]))
		}
	}
	rep.samples["requests"] = requests
	goodputRPS := goodput(cfg.out, si, steps, rep)
	if cfg.trace {
		rep.layer("serve.goodput_rps", goodputRPS, "1/s")
		rep.layer("serve.capacity_rps", stats.Median(burstRPS), "1/s")
		rep.layer("serve.goroutines_end", float64(goroutines), "count")
		serveLayers(si, steps, handlerUS, ls.reg, rep)
	} else {
		rep.e2e("cpu_ms", 1e3*cpuTotal.Seconds()/float64(burstReqs), "ms")
	}
	// Drop the benchmark's own record of the traffic, so that the
	// retained heap is what the server holds: engines, memos, registry.
	si.Steps, si.Bursts = nil, nil
	rep.e2e("heap_retained_mb", retainedMB(), "MB")
	if err := ls.stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if !cfg.trace {
		return nil
	}

	// Per-layer probes on the warm scenarios' in-process models.
	root := tr.begin("bench.probe", -1, -1)
	var collectS, mbS, itS float64
	var predictUS []float64
	for i := 0; i < si.Warm; i++ {
		sc := si.Scenarios[i]
		spec, app, err := scenarioApp(sc)
		if err != nil {
			return err
		}
		c0 := time.Now()
		p, m, err := collect(tr, root, -1, spec, app, sc.Seed)
		if err != nil {
			return err
		}
		collectS += time.Since(c0).Seconds()
		mb, it, err := checkSplit(tr, root, spec, app, sc.Seed, p)
		rep.op(err)
		mbS, itS = mbS+mb, itS+it
		predictUS = append(predictUS, predictMicros(tr, root, m, spec, app))
	}
	tr.end(root)
	rep.layer("instrument.collect_s", collectS, "s")
	rep.layer("instrument.microbench_s", mbS, "s")
	rep.layer("instrument.iteration_s", itS, "s")
	rep.layer("core.predict_us", stats.Mean(predictUS), "us")
	rep.layerShares(tr)
	return tr.write(cfg.spansOut)
}

// serveLayers records the traced run's serving figures: latencies by
// request kind, the direct-handler replay, the server's own counters,
// the generator's lag and the tracing overhead.
func serveLayers(si *serveInputs, steps []*outcomes, handlerUS []float64, reg *obs.Registry, rep *report) {
	top := len(steps) - 1
	topPredict := latencies(&si.Steps[top], steps[top], predictKind, false)
	rep.layer("serve.predict_p50_ms", 1e3*stats.Median(topPredict), "ms")
	p99, p := tail(topPredict)
	rep.samples[fmt.Sprintf("predict_p%g", p)] = len(topPredict)
	rep.layer("serve.predict_p99_ms", 1e3*p99, "ms")
	var searches, colds []float64
	for i := range steps {
		searches = append(searches, latencies(&si.Steps[i], steps[i], searchKind, false)...)
		colds = append(colds, latencies(&si.Steps[i], steps[i], predictKind, true)...)
	}
	rep.samples["search"], rep.samples["cold_predict"] = len(searches), len(colds)
	rep.layer("serve.search_p50_ms", 1e3*stats.Median(searches), "ms")
	rep.layer("serve.cold_predict_ms", 1e3*stats.Median(colds), "ms")
	h50 := stats.Median(handlerUS)
	h99, hp := tail(handlerUS)
	rep.samples[fmt.Sprintf("handler_p%g", hp)] = len(handlerUS)
	rep.layer("serve.handler_us_p50", h50, "us")
	rep.layer("serve.handler_us_p99", h99, "us")
	var svc []float64
	for k, q := range si.Steps[0].Reqs {
		if q.Kind == predictKind && !q.Cold && !steps[0].s[k].failed {
			svc = append(svc, float64(steps[0].s[k].svc)/float64(time.Microsecond))
		}
	}
	rep.layer("serve.transport_us", stats.Median(svc)-h50, "us")

	snap := counters(reg)
	if bs := histogram(reg, "serve.predict.batchsize"); bs.Count > 0 {
		rep.layer("serve.reqs_per_batch", bs.Sum/float64(bs.Count), "count")
	}
	rep.layer("serve.engines_built", float64(snap["serve.engines.built"]), "count")
	rep.layer("serve.shed", float64(snap["serve.predict.shed"]+snap["serve.search.shed"]), "count")
	rep.layer("search.memo_hit_pct", pct(snap["search.memo.hits"], snap["search.memo.hits"]+snap["search.memo.misses"]), "%")

	var lags, traced, untraced []float64
	for k, s := range steps[top].s {
		lags = append(lags, millis(s.lag))
		if si.Steps[top].Reqs[k].Kind == predictKind && !s.failed {
			if s.traced {
				traced = append(traced, s.lat.Seconds())
			} else {
				untraced = append(untraced, s.lat.Seconds())
			}
		}
	}
	lag, _ := tail(lags)
	rep.layer("loadgen.lag_ms", lag, "ms")
	rep.overhead(untraced, traced)
}

// latencies returns the seconds from due to response of the successful
// requests of one kind in a step (cold predicts only, or none).
func latencies(l *requestList, o *outcomes, kind kind, cold bool) []float64 {
	var out []float64
	for k, q := range l.Reqs {
		if q.Kind == kind && q.Cold == cold && !o.s[k].failed {
			out = append(out, o.s[k].lat.Seconds())
		}
	}
	return out
}

// goodput is the completion rate of the highest ladder step whose
// predict p99 meets p99Limit and whose median generator lag over the
// step's last tenth stays within it too (no growing backlog). Failed requests
// miss the limit by definition. If no step qualifies, the lowest step's
// rate is reported and the run says so.
func goodput(w io.Writer, si *serveInputs, steps []*outcomes, rep *report) float64 {
	best := -1
	rates := make([]float64, len(steps))
	for i, o := range steps {
		ss := o.s
		var lat []float64
		var last time.Duration
		ok := 0
		for k, s := range ss {
			if si.Steps[i].Reqs[k].Kind == predictKind {
				l := s.lat.Seconds()
				if s.failed {
					l = math.Inf(1)
				}
				lat = append(lat, l)
			}
			if !s.failed {
				ok++
			}
			last = s.lat
		}
		span := si.StepSecs + last.Seconds()
		rates[i] = float64(ok) / span
		p99, _ := tail(lat)
		var endLag []float64
		for _, s := range ss[len(ss)*9/10:] {
			endLag = append(endLag, s.lag.Seconds())
		}
		endLagP50 := stats.Median(endLag)
		pass := p99 <= p99Limit.Seconds() && endLagP50 <= p99Limit.Seconds()
		if pass {
			best = i
		}
		fmt.Fprintf(w, "# step %d/s: predict p50 %.3f ms, p99 %.3f ms, lag p50 over the last tenth %.3f ms, ok %d/%d, meets limit %v\n",
			si.Rates[i], 1e3*stats.Median(lat), 1e3*p99, 1e3*endLagP50, ok, len(ss), pass)
		rep.samples[fmt.Sprintf("step_%d_rps", si.Rates[i])] = len(ss)
	}
	if best < 0 {
		fmt.Fprintln(w, "# goodput: no ladder step met the p99 limit; reporting the lowest step")
		best = 0
	}
	return rates[best]
}

// replayHandler sends the top step's recorded predict bodies straight to
// ServeHTTP, without a network, and returns each call's microseconds.
func replayHandler(srv *serve.Server, si *serveInputs, steps []*outcomes) []float64 {
	top := len(si.Steps) - 1
	var out []float64
	for k, q := range si.Steps[top].Reqs {
		if q.Kind != predictKind || q.Cold || steps[top].s[k].failed {
			continue
		}
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(si.Steps[top].body(k)))
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
		if len(out) == 2000 {
			break
		}
	}
	return out
}

func histogram(reg *obs.Registry, name string) obs.HistogramSnap {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == name {
			return h
		}
	}
	return obs.HistogramSnap{}
}

func scenarioApp(sc scenario) (cluster.Spec, *exec.App, error) {
	spec, err := cluster.Named(sc.Config)
	if err != nil {
		return spec, nil, err
	}
	b, err := experiments.BuilderByName(sc.App)
	if err != nil {
		return spec, nil, err
	}
	s, err := experiments.ParseScale(sc.Scale)
	if err != nil {
		return spec, nil, err
	}
	return spec, b.Build(s), nil
}

// oracle recomputes every served value in process: mheta.Instrument of
// the same scenario, then Predict or SearchWithOptions.
type oracle struct {
	si       *serveInputs
	models   map[int]*core.Model
	searches map[[2]string]serve.SearchResponse
}

func newOracle(si *serveInputs) *oracle {
	return &oracle{si: si, models: map[int]*core.Model{}, searches: map[[2]string]serve.SearchResponse{}}
}

func (o *oracle) model(i int) (*core.Model, cluster.Spec, *exec.App, error) {
	spec, app, err := scenarioApp(o.si.Scenarios[i])
	if err != nil {
		return nil, spec, nil, err
	}
	if m, ok := o.models[i]; ok {
		return m, spec, app, nil
	}
	m, err := mheta.Instrument(spec, app, o.si.Scenarios[i].Seed)
	if err != nil {
		return nil, spec, nil, err
	}
	o.models[i] = m
	return m, spec, app, nil
}

// check compares the served outcome of request k of l with its
// in-process value.
func (o *oracle) check(l *requestList, k int, out *outcomes) error {
	q, s := l.Reqs[k], out.s[k]
	if s.failed {
		return out.err(k)
	}
	m, spec, app, err := o.model(q.Scenario)
	if err != nil {
		return err
	}
	switch q.Kind {
	case predictKind:
		d := dist.Distribution(l.dist(k))
		if len(d) == 0 {
			d = mheta.BlockDistribution(app, spec)
		}
		if want := m.Predict(d).Total; math.Float64bits(s.total) != math.Float64bits(want) {
			return fmt.Errorf("predict %+v %v: served %v, in process %v", o.si.Scenarios[q.Scenario], d, s.total, want)
		}
	case searchKind:
		got := *out.search(k)
		key := [2]string{fmt.Sprint(q.Scenario), q.alg()}
		want, ok := o.searches[key]
		if !ok {
			sc := o.si.Scenarios[q.Scenario]
			res, err := mheta.SearchWithOptions(q.alg(), spec, app, m.Clone(), sc.Seed, mheta.SearchOptions{Workers: 1})
			if err != nil {
				return err
			}
			want = serve.SearchResponse{Algorithm: res.Algorithm, TimeS: res.Time, Evaluations: res.Evaluations, Best: res.Best}
			o.searches[key] = want
		}
		got.Blk, got.BlkTimeS = nil, 0
		if math.Float64bits(got.TimeS) != math.Float64bits(want.TimeS) || !reflect.DeepEqual(got, want) {
			return fmt.Errorf("search %+v %s: served %+v, in process %+v", o.si.Scenarios[q.Scenario], q.alg(), got, want)
		}
	}
	return nil
}
