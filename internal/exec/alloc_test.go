package exec_test

import (
	"runtime"
	"testing"

	"mheta/internal/apps"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
	"mheta/internal/program"
)

// timingRunCost returns the allocations per timing-only run of app under
// d (testing.AllocsPerRun) and the bytes one such run allocates.
func timingRunCost(t *testing.T, app *exec.App, d dist.Distribution) (allocs float64, bytes uint64) {
	t.Helper()
	w := mpi.NewWorld(uniformSpec(len(d), 8<<20), 1, 0.02)
	run := func() {
		if _, err := exec.Run(w, app, d, exec.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(5, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

func TestTimingOnlyCostIndependentOfMessageSizes(t *testing.T) {
	// A timing-only run moves sizes, not bytes: what it allocates must
	// not depend on how large the IR declares its messages and
	// reductions. Jacobi has nearest-neighbour and reduction sections,
	// RNA a pipeline.
	const small, large = 8, 64 << 10
	jcfg := apps.DefaultJacobiConfig()
	jcfg.Rows, jcfg.Cols, jcfg.Iterations = 256, 32, 3
	rcfg := apps.DefaultRNAConfig()
	rcfg.Rows, rcfg.Cols, rcfg.Iterations = 256, 64, 2
	cases := []struct {
		name string
		make func() *exec.App
		rows int
	}{
		{"jacobi", func() *exec.App { return apps.NewJacobi(jcfg) }, jcfg.Rows},
		{"rna", func() *exec.App { return apps.NewRNA(rcfg) }, rcfg.Rows},
	}
	sized := func(mk func() *exec.App, msg, red int64) *exec.App {
		app := mk()
		for i := range app.Prog.Sections {
			s := &app.Prog.Sections[i]
			switch s.Comm {
			case program.CommNearestNeighbor, program.CommPipeline:
				s.MsgBytesPerNeighbor = msg
			case program.CommReduction:
				s.ReduceBytes = red
			}
		}
		return app
	}
	for _, a := range cases {
		d := dist.Block(a.rows, 4)
		baseAllocs, baseBytes := timingRunCost(t, sized(a.make, small, small), d)
		for _, c := range []struct {
			name     string
			msg, red int64
		}{
			{"MsgBytesPerNeighbor", large, small},
			{"ReduceBytes", small, large},
		} {
			allocs, bytes := timingRunCost(t, sized(a.make, c.msg, c.red), d)
			if allocs != baseAllocs {
				t.Errorf("%s: %s %d: %v allocs per run, %v at %d", a.name, c.name, large, allocs, baseAllocs, small)
			}
			if bytes > baseBytes+large {
				t.Errorf("%s: %s %d: %d bytes per run, %d at %d", a.name, c.name, large, bytes, baseBytes, small)
			}
		}
	}
}
