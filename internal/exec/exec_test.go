package exec_test

import (
	"strings"
	"testing"

	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
	"mheta/internal/program"
	"mheta/internal/sched"
	"mheta/internal/trace"
)

func tinyJacobi() (*exec.App, apps.JacobiConfig) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 256, 32, 3
	return apps.NewJacobi(cfg), cfg
}

func uniformSpec(n int, mem int64) cluster.Spec {
	base := cluster.DC(n)
	for i := range base.Nodes {
		base.Nodes[i] = cluster.NodeSpec{CPUPower: 1, MemoryBytes: mem, DiskScale: 1}
	}
	base.Name = "uniform"
	return base
}

func TestRunRejectsBadDistribution(t *testing.T) {
	app, _ := tinyJacobi()
	w := mpi.NewWorld(uniformSpec(4, 1<<20), 1, 0)
	if _, err := exec.Run(w, app, dist.Distribution{1, 2, 3}, exec.Options{}); err == nil {
		t.Fatal("wrong-length distribution accepted")
	}
	if _, err := exec.Run(w, app, dist.Distribution{1, 2, 3, 4}, exec.Options{}); err == nil {
		t.Fatal("wrong-total distribution accepted")
	}
}

func TestRunProducesPositiveTimes(t *testing.T) {
	app, cfg := tinyJacobi()
	w := mpi.NewWorld(uniformSpec(4, 1<<20), 1, 0.02)
	res, err := exec.Run(w, app, dist.Block(cfg.Rows, 4), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.PerIteration <= 0 {
		t.Fatalf("times %v / %v", res.Time, res.PerIteration)
	}
	if res.PerIteration*float64(cfg.Iterations) != res.Time {
		t.Fatal("per-iteration inconsistent")
	}
}

func TestRunDeterministic(t *testing.T) {
	app, cfg := tinyJacobi()
	d := dist.Block(cfg.Rows, 4)
	run := func() float64 {
		w := mpi.NewWorld(cluster.HY1(4), 42, 0.02)
		res, err := exec.Run(w, app, d, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if run() != run() {
		t.Fatal("actual runs not deterministic")
	}
}

func TestZeroBlockNodesParticipate(t *testing.T) {
	app, cfg := tinyJacobi()
	w := mpi.NewWorld(uniformSpec(4, 1<<20), 1, 0)
	d := dist.Distribution{0, cfg.Rows / 2, 0, cfg.Rows / 2}
	res, err := exec.Run(w, app, d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("run with idle nodes failed")
	}
}

func TestSingleActiveNode(t *testing.T) {
	app, cfg := tinyJacobi()
	w := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	d := dist.Distribution{cfg.Rows, 0, 0, 0}
	if _, err := exec.Run(w, app, d, exec.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfCoreSlowerThanInCore(t *testing.T) {
	app, cfg := tinyJacobi()
	d := dist.Block(cfg.Rows, 4)

	// Plenty of memory: in core (after compulsory load).
	wBig := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	inCore, err := exec.Run(wBig, app, d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wBig.Rank(0).Disk().Reads > 2 {
		t.Fatalf("in-core run performed %d reads per node", wBig.Rank(0).Disk().Reads)
	}

	// Tiny memory: every iteration streams from disk.
	wSmall := mpi.NewWorld(uniformSpec(4, 8<<10), 1, 0)
	ooc, err := exec.Run(wSmall, app, d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ooc.Time <= inCore.Time {
		t.Fatalf("out-of-core (%v) not slower than in-core (%v)", ooc.Time, inCore.Time)
	}
	if wSmall.Rank(0).Disk().Reads <= wBig.Rank(0).Disk().Reads {
		t.Fatal("out-of-core run did not read more")
	}
}

func TestOOCNumericsMatchInCore(t *testing.T) {
	// The same program must compute identical values whether its data
	// streams through ICLA chunks or stays resident.
	app, cfg := tinyJacobi()
	d := dist.Block(cfg.Rows, 4)

	wBig := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	if _, err := exec.Run(wBig, app, d, exec.Options{Numerics: true}); err != nil {
		t.Fatal(err)
	}
	wSmall := mpi.NewWorld(uniformSpec(4, 8<<10), 1, 0)
	if _, err := exec.Run(wSmall, app, d, exec.Options{Numerics: true}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		a := wBig.Rank(p).Disk().Extent("B")
		b := wSmall.Rank(p).Disk().Extent("B")
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("rank %d extents %d vs %d bytes", p, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank %d: in-core and out-of-core runs diverged at byte %d", p, i)
			}
		}
	}
	_ = cfg
}

func TestPrefetchNumericsMatchSync(t *testing.T) {
	cfgS := apps.DefaultJacobiConfig()
	cfgS.Rows, cfgS.Cols, cfgS.Iterations = 256, 32, 3
	cfgP := cfgS
	cfgP.Prefetch = true

	d := dist.Block(cfgS.Rows, 4)
	spec := uniformSpec(4, 8<<10) // force out of core

	wS := mpi.NewWorld(spec, 1, 0)
	if _, err := exec.Run(wS, apps.NewJacobi(cfgS), d, exec.Options{Numerics: true}); err != nil {
		t.Fatal(err)
	}
	wP := mpi.NewWorld(spec, 1, 0)
	if _, err := exec.Run(wP, apps.NewJacobi(cfgP), d, exec.Options{Numerics: true}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		a := wS.Rank(p).Disk().Extent("B")
		b := wP.Rank(p).Disk().Extent("B")
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank %d: prefetch changed results at byte %d", p, i)
			}
		}
	}
}

func TestPrefetchFasterOutOfCore(t *testing.T) {
	cfgS := apps.DefaultJacobiConfig()
	cfgS.Rows, cfgS.Cols, cfgS.Iterations = 512, 64, 3
	cfgP := cfgS
	cfgP.Prefetch = true
	d := dist.Block(cfgS.Rows, 4)
	spec := uniformSpec(4, 16<<10)

	wS := mpi.NewWorld(spec, 1, 0)
	sync, err := exec.Run(wS, apps.NewJacobi(cfgS), d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wP := mpi.NewWorld(spec, 1, 0)
	pf, err := exec.Run(wP, apps.NewJacobi(cfgP), d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Time >= sync.Time {
		t.Fatalf("prefetch (%v) not faster than sync (%v) out of core", pf.Time, sync.Time)
	}
}

func TestNoOutstandingPrefetchesAfterRun(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 256, 32, 2
	cfg.Prefetch = true
	w := mpi.NewWorld(uniformSpec(4, 8<<10), 1, 0)
	if _, err := exec.Run(w, apps.NewJacobi(cfg), dist.Block(cfg.Rows, 4), exec.Options{}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if n := w.Rank(p).Disk().OutstandingPrefetches(); n != 0 {
			t.Fatalf("rank %d leaked %d prefetches", p, n)
		}
	}
}

func TestIterationsOverride(t *testing.T) {
	app, cfg := tinyJacobi()
	d := dist.Block(cfg.Rows, 4)
	w1 := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	r1, err := exec.Run(w1, app, d, exec.Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2 := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	r2, err := exec.Run(w2, app, d, exec.Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := r2.Time / r1.Time
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("2 iterations took %.2f× of 1", ratio)
	}
}

func TestInstrumentModeForcesIO(t *testing.T) {
	app, cfg := tinyJacobi()
	d := dist.Block(cfg.Rows, 4)
	// Huge memory: a plain run would do only compulsory reads, but the
	// instrumented iteration must force reads and writes for distributed
	// variables (§4.1.1).
	w := mpi.NewWorld(uniformSpec(4, 64<<20), 1, 0)
	res, err := exec.Run(w, app, d, exec.Options{Mode: exec.ModeInstrument})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		rec := res.Recorders[p]
		if rec == nil {
			t.Fatalf("rank %d has no recorder", p)
		}
		var reads, writes int
		for _, io := range rec.IO {
			reads += io.ReadCalls
			writes += io.WriteCalls
		}
		if reads == 0 || writes == 0 {
			t.Fatalf("rank %d forced I/O missing: %d reads, %d writes", p, reads, writes)
		}
	}
}

func TestInstrumentRunsExactlyOneIteration(t *testing.T) {
	app, cfg := tinyJacobi()
	d := dist.Block(cfg.Rows, 4)
	w := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	res, err := exec.Run(w, app, d, exec.Options{Mode: exec.ModeInstrument, Iterations: 99})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration: per-iteration equals total.
	if res.PerIteration != res.Time {
		t.Fatal("instrument mode must run exactly one iteration")
	}
	// Stage spans exist for both sections.
	spans := res.Recorders[0].StageSpans
	if len(spans) < 2 {
		t.Fatalf("recorded %d stage spans", len(spans))
	}
}

func TestInstrumentRecordsOverlapForPrefetch(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 256, 32, 2
	cfg.Prefetch = true
	app := apps.NewJacobi(cfg)
	w := mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0)
	res, err := exec.Run(w, app, dist.Block(cfg.Rows, 4), exec.Options{Mode: exec.ModeInstrument})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, io := range res.Recorders[1].IO {
		if io.OverlapElems > 0 && io.OverlapCompute > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("instrumented prefetch run recorded no overlap (Figure 5 transform broken)")
	}
}

func TestNodeTimesNonNegativeAndBounded(t *testing.T) {
	app, cfg := tinyJacobi()
	w := mpi.NewWorld(cluster.HY1(4), 3, 0.02)
	res, err := exec.Run(w, app, dist.Block(cfg.Rows, 4), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for p, tm := range res.NodeTimes {
		if tm < 0 || tm > res.Time {
			t.Fatalf("rank %d time %v outside [0, %v]", p, tm, res.Time)
		}
	}
}

func TestSharedDiskSlowsOutOfCoreRuns(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 512, 64, 3
	app := apps.NewJacobi(cfg)
	d := dist.Block(cfg.Rows, 4)
	spec := uniformSpec(4, 16<<10) // all four nodes stream out of core

	private, err := exec.Run(mpi.NewWorld(spec, 1, 0), app, d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := exec.Run(mpi.NewWorld(spec.WithSharedDisk(), 1, 0), app, d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Time <= private.Time {
		t.Fatalf("shared disk (%v) not slower than private disks (%v)", shared.Time, private.Time)
	}
	// Four streaming nodes: the I/O component stretches ≈4×, so the run
	// must be substantially slower but less than 4× overall (compute is
	// unaffected).
	if shared.Time >= private.Time*4 {
		t.Fatalf("shared disk %v implausibly slow vs %v", shared.Time, private.Time)
	}
}

func TestSharedDiskInCoreUnaffected(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 512, 64, 3
	app := apps.NewJacobi(cfg)
	d := dist.Block(cfg.Rows, 4)
	spec := uniformSpec(4, 8<<20) // everything in core

	private, err := exec.Run(mpi.NewWorld(spec, 1, 0), app, d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := exec.Run(mpi.NewWorld(spec.WithSharedDisk(), 1, 0), app, d, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Time != private.Time {
		t.Fatalf("in-core run changed under shared disk: %v vs %v", shared.Time, private.Time)
	}
}

func TestSharedDiskContentionCounts(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols = 512, 64
	app := apps.NewJacobi(cfg)
	spec := uniformSpec(4, 16<<10).WithSharedDisk()
	d := dist.Block(cfg.Rows, 4)
	if k := exec.SharedDiskContention(spec, app.Prog, d, false); k != 4 {
		t.Fatalf("k = %v, want 4 (all stream)", k)
	}
	// One huge-memory node in the middle: it stays in core.
	spec.Nodes[1].MemoryBytes = 8 << 20
	if k := exec.SharedDiskContention(spec, app.Prog, d, false); k != 3 {
		t.Fatalf("k = %v, want 3", k)
	}
	// Instrument mode forces everyone.
	if k := exec.SharedDiskContention(spec, app.Prog, d, true); k != 4 {
		t.Fatalf("instrument k = %v, want 4", k)
	}
	// Zero-work nodes never stream.
	d2 := dist.Distribution{cfg.Rows, 0, 0, 0}
	if k := exec.SharedDiskContention(spec, app.Prog, d2, false); k != 1 {
		t.Fatalf("k = %v, want 1", k)
	}
}

func TestNumericsSizeContract(t *testing.T) {
	// The timing plane charges the message sizes the IR declares, so a
	// numerics run must reject an application whose payloads disagree
	// with them; a timing-only run trusts the declaration.
	cases := []struct {
		name string
		edit func(p *program.Program)
		want string
	}{
		{"boundary", func(p *program.Program) { p.Sections[0].MsgBytesPerNeighbor /= 2 }, "MsgBytesPerNeighbor"},
		{"reduction", func(p *program.Program) { p.Sections[1].ReduceBytes = 16 }, "ReduceBytes"},
	}
	for _, c := range cases {
		app, cfg := tinyJacobi()
		c.edit(app.Prog)
		d := dist.Block(cfg.Rows, 4)
		_, err := exec.Run(mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0), app, d, exec.Options{Numerics: true})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: numerics run of a mis-declared app returned %v, want an error naming %s", c.name, err, c.want)
		}
		if _, err := exec.Run(mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0), app, d, exec.Options{}); err != nil {
			t.Errorf("%s: timing-only run: %v", c.name, err)
		}
	}
}

func TestRunRejectsTraceInInstrumentMode(t *testing.T) {
	// The instrumented iteration's profiler slot belongs to MPI-Jack, so
	// a trace there would silently stay empty.
	app, cfg := tinyJacobi()
	w := mpi.NewWorld(uniformSpec(4, 1<<20), 1, 0)
	_, err := exec.Run(w, app, dist.Block(cfg.Rows, 4), exec.Options{Mode: exec.ModeInstrument, Trace: trace.New()})
	if err == nil || !strings.Contains(err.Error(), "Trace") {
		t.Fatalf("instrumented run with a trace returned %v, want an error naming Trace", err)
	}
	tr := trace.New()
	if _, err := exec.Run(w, app, dist.Block(cfg.Rows, 4), exec.Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("plain traced run collected no spans")
	}
}

// panickyState fails in the timing plane on one rank.
type panickyState struct {
	exec.State
	rank int
}

func (s panickyState) Work(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows, chunkBytes int) float64 {
	if nc.R.Rank() == s.rank {
		panic("boom")
	}
	return s.State.Work(nc, sec, stg, tile, gRow, nRows, chunkBytes)
}

func TestRunReportsRankPanic(t *testing.T) {
	app, cfg := tinyJacobi()
	newState := app.NewState
	app.NewState = func(nc *exec.NodeCtx) exec.State { return panickyState{newState(nc), 2} }
	defer func() {
		p := recover()
		if msg, _ := p.(string); !strings.HasPrefix(msg, "mpi: rank 2 panicked: boom") {
			t.Fatalf("recovered %v, want the driver's report naming rank 2", p)
		}
	}()
	exec.Run(mpi.NewWorld(uniformSpec(4, 1<<20), 1, 0), app, dist.Block(cfg.Rows, 4), exec.Options{})
	t.Fatal("a panicking rank did not panic the run")
}

func TestRunTwiceOnOneWorld(t *testing.T) {
	// Run resets the world's clocks and scheduler, so without noise a
	// second run on the same world repeats the first exactly.
	app, cfg := tinyJacobi()
	w := mpi.NewWorld(uniformSpec(4, 1<<20), 1, 0)
	var runs [2]struct {
		res exec.Result
		st  sched.Stats
	}
	for i := range runs {
		res, err := exec.Run(w, app, dist.Block(cfg.Rows, 4), exec.Options{EventStats: &runs[i].st})
		if err != nil {
			t.Fatal(err)
		}
		runs[i].res = res
	}
	if runs[0].st != runs[1].st || runs[0].st.Events == 0 {
		t.Fatalf("scheduler stats %+v then %+v", runs[0].st, runs[1].st)
	}
	for p := range runs[0].res.NodeTimes {
		if runs[0].res.NodeTimes[p] != runs[1].res.NodeTimes[p] {
			t.Fatalf("rank %d: %v then %v", p, runs[0].res.NodeTimes[p], runs[1].res.NodeTimes[p])
		}
	}
}

func TestRunRejectsRaggedReduction(t *testing.T) {
	app, cfg := tinyJacobi()
	app.Prog.Sections[1].ReduceBytes = 12
	for _, numerics := range []bool{false, true} {
		_, err := exec.Run(mpi.NewWorld(uniformSpec(4, 8<<20), 1, 0), app, dist.Block(cfg.Rows, 4), exec.Options{Numerics: numerics})
		if err == nil {
			t.Errorf("numerics=%v: a 12-byte float64 reduction was accepted", numerics)
		}
	}
}

func TestTimingOnlyRunKeepsNoData(t *testing.T) {
	// Forgetting Numerics must fail loudly, not compare zero buffers.
	app, cfg := tinyJacobi()
	w := mpi.NewWorld(uniformSpec(4, 8<<10), 1, 0)
	if _, err := exec.Run(w, app, dist.Block(cfg.Rows, 4), exec.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Rank(0).Disk().Size("B"), cfg.Rows/4*cfg.Cols*8; got != want {
		t.Fatalf("reserved extent of %d bytes, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Extent of a timing-only run's dataset did not panic")
		}
	}()
	w.Rank(0).Disk().Extent("B")
}
