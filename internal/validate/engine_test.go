package validate

// The engine differential suite: the event core (internal/sched driving
// resumable rank machines) must be *bit-identical* to the goroutine core
// it replaced — same per-rank virtual clocks, same message timestamps
// (visible through recorder Wait fields and blocked spans), same Chrome
// trace bytes. Identity is checked with math.Float64bits, not a
// tolerance: the two engines run the same per-rank op sequence over the
// same deterministic noise streams, so any divergence at all is a
// scheduling bug, not rounding.
//
// Coverage: every committed corpus seed with every distribution case
// (TestEngineEquivalenceCorpus), all six applications on all four Table 1
// archetypes (TestEngineEquivalenceApps), and instrument-mode recorder
// equality (TestEngineEquivalenceInstrument). CI runs this package under
// -race, which additionally guards the goroutine side of every pairing.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
	"mheta/internal/trace"
)

// engineRun is one engine's complete observable output for a workload.
type engineRun struct {
	res    exec.Result
	spans  []trace.Span
	chrome []byte
}

// runOne executes (spec, app, d) on a fresh world under one engine. Plain
// runs collect a trace; instrument runs collect recorders instead (the
// profiler slot belongs to MPI-Jack there).
func runOne(t *testing.T, spec cluster.Spec, app *exec.App, d dist.Distribution, seed uint64, eng exec.Engine, mode exec.Mode) engineRun {
	t.Helper()
	return runOpts(t, spec, app, d, seed, exec.Options{Mode: mode, Engine: eng}, mode == exec.ModeRun)
}

// runOpts executes (spec, app, d) on a fresh world with opts, collecting a
// trace when traced is set.
func runOpts(t *testing.T, spec cluster.Spec, app *exec.App, d dist.Distribution, seed uint64, opts exec.Options, traced bool) engineRun {
	t.Helper()
	w := mpi.NewWorld(spec, seed, Noise)
	var tr *trace.Trace
	if traced {
		tr = trace.New()
		opts.Trace = tr
	}
	res, err := exec.Run(w, app, d, opts)
	if err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
	run := engineRun{res: res}
	if tr != nil {
		run.spans = canonSpans(tr.Spans())
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("%+v: chrome export: %v", opts, err)
		}
		run.chrome = buf.Bytes()
	}
	return run
}

// canonSpans sorts spans by a full total order so the comparison is
// independent of trace insertion order (the goroutine core appends from
// many goroutines; the event core from one).
func canonSpans(spans []trace.Span) []trace.Span {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Peer < b.Peer
	})
	return spans
}

// sameBits is bit-exact float equality — stricter than ==, which would
// let -0 vs +0 slide.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertIdentical fails the test unless the two engines produced
// bit-identical results.
func assertIdentical(t *testing.T, ev, gr engineRun) {
	t.Helper()
	assertSame(t, "event", ev, "goroutine", gr)
}

// assertSame fails the test unless runs a and b (named na and nb in
// failures) produced bit-identical clocks, spans, Chrome bytes and
// recorders.
func assertSame(t *testing.T, na string, a engineRun, nb string, b engineRun) {
	t.Helper()
	if len(a.res.NodeTimes) != len(b.res.NodeTimes) {
		t.Fatalf("rank count differs: %s %d, %s %d", na, len(a.res.NodeTimes), nb, len(b.res.NodeTimes))
	}
	for p := range a.res.NodeTimes {
		if !sameBits(a.res.NodeTimes[p], b.res.NodeTimes[p]) {
			t.Errorf("rank %d clock differs: %s %.17g, %s %.17g", p, na, a.res.NodeTimes[p], nb, b.res.NodeTimes[p])
		}
	}
	if !sameBits(a.res.Time, b.res.Time) {
		t.Errorf("Time differs: %s %.17g, %s %.17g", na, a.res.Time, nb, b.res.Time)
	}
	if !sameBits(a.res.PerIteration, b.res.PerIteration) {
		t.Errorf("PerIteration differs: %s %.17g, %s %.17g", na, a.res.PerIteration, nb, b.res.PerIteration)
	}
	if len(a.spans) != len(b.spans) {
		t.Fatalf("span count differs: %s %d, %s %d", na, len(a.spans), nb, len(b.spans))
	}
	for i := range a.spans {
		if a.spans[i] != b.spans[i] {
			t.Fatalf("span %d differs:\n  %s: %+v\n  %s: %+v", i, na, a.spans[i], nb, b.spans[i])
		}
	}
	if !bytes.Equal(a.chrome, b.chrome) {
		t.Errorf("chrome trace bytes differ (%s %d bytes, %s %d bytes)", na, len(a.chrome), nb, len(b.chrome))
	}
	if len(a.res.Recorders) != len(b.res.Recorders) {
		t.Fatalf("recorder count differs: %s %d, %s %d", na, len(a.res.Recorders), nb, len(b.res.Recorders))
	}
	for p := range a.res.Recorders {
		if !reflect.DeepEqual(a.res.Recorders[p], b.res.Recorders[p]) {
			t.Errorf("rank %d recorder differs:\n  %s: %+v\n  %s: %+v", p, na, a.res.Recorders[p], nb, b.res.Recorders[p])
		}
	}
}

// TestEngineEquivalenceCorpus runs every distribution case of every
// committed corpus seed under both engines and demands bit identity —
// clocks, spans, Chrome bytes. This is the same seed set the accuracy
// corpus pins, so every scenario shape the repo knows about (all apps,
// all archetype kinds, shared disks, adversarial distributions) passes
// through both cores.
func TestEngineEquivalenceCorpus(t *testing.T) {
	for _, seed := range CorpusSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := GenScenario(seed)
			for _, c := range sc.Cases {
				ev := runOne(t, sc.Spec, sc.App, c.Dist, sc.Seed^0xACDC, exec.EngineEvent, exec.ModeRun)
				gr := runOne(t, sc.Spec, sc.App, c.Dist, sc.Seed^0xACDC, exec.EngineGoroutine, exec.ModeRun)
				assertIdentical(t, ev, gr)
				if t.Failed() {
					t.Fatalf("case %s: engines diverged", c.Name)
				}
			}
		})
	}
}

// TestEngineEquivalenceApps pins the explicit matrix the corpus samples
// probabilistically: all six applications on all four Table 1 cluster
// archetypes at the paper's eight-node scale, block distribution.
func TestEngineEquivalenceApps(t *testing.T) {
	for _, name := range AppNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, spec := range cluster.NamedAll() {
				app := buildApp(name, newRng(0xA99^uint64(len(name))))
				d := dist.Block(app.Prog.GlobalElems(), spec.N())
				ev := runOne(t, spec, app, d, 0xC0FFEE, exec.EngineEvent, exec.ModeRun)
				gr := runOne(t, spec, app, d, 0xC0FFEE, exec.EngineGoroutine, exec.ModeRun)
				assertIdentical(t, ev, gr)
				if t.Failed() {
					t.Fatalf("archetype %s: engines diverged", spec.Name)
				}
			}
		})
	}
}

// TestEngineEquivalenceInstrument checks the MPI-Jack instrumented
// iteration — the model's measurement source — produces identical
// recorders (I/O timings, per-call Wait fields carrying message
// timestamps, stage spans) under both engines.
func TestEngineEquivalenceInstrument(t *testing.T) {
	for _, name := range AppNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app := buildApp(name, newRng(0xD1f^uint64(len(name))))
			spec := cluster.HY1(6)
			d := dist.Block(app.Prog.GlobalElems(), spec.N())
			ev := runOne(t, spec, app, d, 0x5EED, exec.EngineEvent, exec.ModeInstrument)
			gr := runOne(t, spec, app, d, 0x5EED, exec.EngineGoroutine, exec.ModeInstrument)
			assertIdentical(t, ev, gr)
		})
	}
}
