package validate

// The engine reference suite. The emulator has one engine: mpi.World.Run
// resuming exec's per-rank state machines from a discrete-event
// scheduler. It replaced a goroutine-per-rank engine with blocking
// receives, and was proven bit-identical to it (same Float64bits clocks,
// Chrome-trace bytes and MPI-Jack recorders) before that engine was
// retired (DESIGN.md §5.13). The retired engine's output survives as the
// frozen lines of testdata/digests.golden, recorded while both engines
// agreed; TestFrozenDigests recomputes them from traced, timing-only
// runs. The tests here hold other configurations to the same lines:
// untraced runs, the path search verification takes, must reproduce the
// frozen clocks, and the instrumented iteration with the data plane on
// must reproduce the frozen clocks and recorders.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
)

// frozenDigests reads the committed digest lines.
func frozenDigests(t *testing.T) map[string]string {
	t.Helper()
	return readDigests(t, filepath.Join("testdata", digestFile))
}

// checkFrozen fails the test unless got matches the frozen line for key,
// or its leading fields when got holds fewer.
func checkFrozen(t *testing.T, frozen map[string]string, key, got string) {
	t.Helper()
	want, ok := frozen[key]
	if !ok {
		t.Fatalf("%s: no frozen digest", key)
	}
	if !strings.HasPrefix(want+" ", got+" ") {
		t.Errorf("%s:\n  got  %s\n  want %s", key, got, want)
	}
}

// untracedTimes fingerprints the clocks of one untraced run.
func untracedTimes(t *testing.T, spec cluster.Spec, app *exec.App, d dist.Distribution, seed uint64) string {
	t.Helper()
	res, err := exec.Run(mpi.NewWorld(spec, seed, Noise), app, d, exec.Options{})
	if err != nil {
		t.Fatalf("run %v: %v", d, err)
	}
	return "times=" + timesDigest(res.NodeTimes)
}

// TestEngineEquivalenceCorpus runs every distribution case of every
// committed corpus seed untraced and demands the frozen clocks. This is
// the seed set the accuracy corpus pins, so every scenario shape the repo
// knows about (all apps, all archetype kinds, shared disks, adversarial
// distributions) is covered.
func TestEngineEquivalenceCorpus(t *testing.T) {
	frozen := frozenDigests(t)
	for _, seed := range CorpusSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := GenScenario(seed)
			for _, c := range sc.Cases {
				key := fmt.Sprintf("corpus/seed=%d/%s", seed, c.Name)
				checkFrozen(t, frozen, key, untracedTimes(t, sc.Spec, sc.App, c.Dist, sc.Seed^0xACDC))
			}
		})
	}
}

// TestEngineEquivalenceApps pins the explicit matrix the corpus samples
// probabilistically: all six applications on all four Table 1 cluster
// archetypes at the paper's eight-node scale, block distribution,
// untraced.
func TestEngineEquivalenceApps(t *testing.T) {
	frozen := frozenDigests(t)
	for _, name := range AppNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, spec := range cluster.NamedAll() {
				key, app, d := engineAppsCase(name, spec)
				checkFrozen(t, frozen, key, untracedTimes(t, spec, app, d, engineAppsSeed))
			}
		})
	}
}

// TestEngineEquivalenceInstrument checks that the MPI-Jack instrumented
// iteration — the model's measurement source — run with the data plane
// on produces the frozen clocks and recorders (I/O timings, per-call
// Wait fields carrying message timestamps, stage spans).
func TestEngineEquivalenceInstrument(t *testing.T) {
	frozen := frozenDigests(t)
	for _, name := range AppNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			key, spec, app, d := engineInstrumentCase(name)
			res, err := exec.Run(mpi.NewWorld(spec, engineInstrumentSeed, Noise), app, d, exec.Options{Mode: exec.ModeInstrument, Numerics: true})
			if err != nil {
				t.Fatal(err)
			}
			checkFrozen(t, frozen, key, "times="+timesDigest(res.NodeTimes)+" recorders="+recordersDigest(res.Recorders))
		})
	}
}
