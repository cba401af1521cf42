package validate

// The data-plane differential: a run with Options.Numerics (real kernels
// over real bytes, application payloads) and the default timing-only run
// must be bit-identical in everything observable about time — clocks,
// recorders, spans and Chrome-trace bytes. This is what licenses the
// default to skip the arithmetic: virtual time depends on work units and
// sizes, never on values.

import (
	"fmt"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
)

// TestNumericsDifferential runs every application builder at test scale
// on all four Table 1 archetypes, at each Figure 8 anchor (in-core,
// out-of-core and prefetching paths alike), under both engines, in plain,
// traced and instrumented runs, with numerics on and off.
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
					for _, eng := range []exec.Engine{exec.EngineEvent, exec.EngineGoroutine} {
						for _, m := range modes {
							opts := exec.Options{Mode: m.mode, Engine: eng}
							off := runOpts(t, spec, app, pt.Dist, 0x0DA7A, opts, m.traced)
							opts.Numerics = true
							on := runOpts(t, spec, app, pt.Dist, 0x0DA7A, opts, m.traced)
							assertSame(t, "numerics", on, "timing-only", off)
							if t.Failed() {
								t.Fatalf("%s %s %s %v: planes diverged", spec.Name, pt.Label, m.name, eng)
							}
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
