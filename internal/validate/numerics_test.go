package validate

// The data-plane differential: a run with Options.Numerics (real kernels
// over real bytes, application payloads) and the default timing-only run
// must be bit-identical in everything observable about time — clocks,
// recorders, spans and Chrome-trace bytes. This is what licenses the
// default to skip the arithmetic: virtual time depends on work units and
// sizes, never on values.

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
	"mheta/internal/experiments"
	"mheta/internal/mpi"
	"mheta/internal/trace"
)

// planeRun is one run's complete observable output.
type planeRun struct {
	res    exec.Result
	spans  []trace.Span
	chrome []byte
}

// runOpts executes (spec, app, d) on a fresh world with opts, collecting a
// trace when traced is set.
func runOpts(t *testing.T, spec cluster.Spec, app *exec.App, d dist.Distribution, seed uint64, opts exec.Options, traced bool) planeRun {
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
	run := planeRun{res: res}
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
// independent of trace insertion order.
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

// assertSame fails the test unless runs a and b (named na and nb in
// failures) produced bit-identical clocks, spans, Chrome bytes and
// recorders.
func assertSame(t *testing.T, na string, a planeRun, nb string, b planeRun) {
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

// TestNumericsDifferential runs every application builder at test scale
// on all four Table 1 archetypes, at each Figure 8 anchor (in-core,
// out-of-core and prefetching paths alike), in plain, traced and
// instrumented runs, with numerics on and off.
func TestNumericsDifferential(t *testing.T) {
	builders := append(experiments.AllApps(), experiments.JacobiBuilder(true))
	modes := []struct {
		name   string
		mode   exec.Mode
		traced bool
	}{
		{"plain", exec.ModeRun, false},
		{"traced", exec.ModeRun, true},
		{"instrument", exec.ModeInstrument, false},
	}
	for _, b := range builders {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			app := b.Build(experiments.ScaleTest)
			for _, spec := range cluster.NamedAll() {
				for _, pt := range dist.Spectrum(app.Prog.GlobalElems(), spec, bytesPerElem(app), 1) {
					for _, m := range modes {
						opts := exec.Options{Mode: m.mode}
						off := runOpts(t, spec, app, pt.Dist, 0x0DA7A, opts, m.traced)
						opts.Numerics = true
						on := runOpts(t, spec, app, pt.Dist, 0x0DA7A, opts, m.traced)
						assertSame(t, "numerics", on, "timing-only", off)
						if t.Failed() {
							t.Fatalf("%s %s %s: planes diverged", spec.Name, pt.Label, m.name)
						}
					}
				}
			}
		})
	}
}

// TestNumericsDifferentialCorpus extends the differential to the corpus
// shapes the Table 1 matrix does not reach (random architectures, shared
// disks, adversarial distributions with idle ranks), on a shard of the
// committed seeds.
func TestNumericsDifferentialCorpus(t *testing.T) {
	for _, seed := range CorpusSeeds()[:16] {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := GenScenario(seed)
			for _, c := range sc.Cases {
				off := runOpts(t, sc.Spec, sc.App, c.Dist, sc.Seed^0xACDC, exec.Options{}, true)
				on := runOpts(t, sc.Spec, sc.App, c.Dist, sc.Seed^0xACDC, exec.Options{Numerics: true}, true)
				assertSame(t, "numerics", on, "timing-only", off)
				if t.Failed() {
					t.Fatalf("case %s: planes diverged", c.Name)
				}
			}
		})
	}
}
