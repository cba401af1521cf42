// pipeline-rna demonstrates the pipelined execution model (Equation 4):
// the RNA wavefront application on the DC configuration, where relative
// CPU power differences make the pipeline's head or tail the bottleneck
// depending on the distribution. It prints the per-node predicted times,
// showing how downstream nodes inherit upstream delays, and verifies the
// DP table against the sequential reference.
//
// Run with: go run ./examples/pipeline-rna
package main

import (
	"fmt"
	"log"
	"math"

	"mheta"
	"mheta/internal/apps"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
	"mheta/internal/stats"
)

func main() {
	log.SetFlags(0)

	spec := mheta.MustNamedCluster("DC")
	cfg := mheta.RNADefaults()
	cfg.Rows, cfg.Cols, cfg.Iterations = 1024, 512, 5
	app := mheta.RNA(cfg)

	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		log.Fatalf("instrument: %v", err)
	}

	for _, c := range []struct {
		name string
		d    mheta.Distribution
	}{
		{"Blk", dist.Block(cfg.Rows, spec.N())},
		{"Bal", dist.Balanced(cfg.Rows, spec)},
	} {
		pred := model.PredictDetailed(c.d)
		actual, err := mheta.RunActual(spec, app, c.d, 7)
		if err != nil {
			log.Fatalf("run: %v", err)
		}
		fmt.Printf("%s %v\n", c.name, c.d)
		fmt.Printf("  predicted %.3fs, actual %.3fs (diff %.2f%%)\n",
			pred.Total, actual, stats.PercentDiff(pred.Total, actual)*100)
		fmt.Printf("  per-node predicted iteration times:")
		for _, t := range pred.NodeTimes {
			fmt.Printf(" %.4f", t)
		}
		fmt.Println(" — the pipeline tail finishes last")
	}

	// Verify the wavefront numerics: the parallel DP equals a sequential
	// sweep exactly, independent of the distribution. Only a numerics run
	// computes and keeps the table's values.
	w := mpi.NewWorld(spec, 7, mheta.DefaultNoise)
	d := dist.Block(cfg.Rows, spec.N())
	if _, err := exec.Run(w, app, d, exec.Options{Numerics: true}); err != nil {
		log.Fatalf("verify run: %v", err)
	}
	// Rebuild the final table from the per-node disks (tile-major layout).
	refTable, refScore := apps.RNAReference(cfg, cfg.Iterations)
	maxErr := 0.0
	strip := cfg.Cols / cfg.Tiles
	for p := 0; p < spec.N(); p++ {
		start := d.Start(p)
		blob := w.Rank(p).Disk().Extent("T")
		for k := 0; k < cfg.Tiles; k++ {
			for i := 0; i < d[p]; i++ {
				for j := 0; j < strip; j++ {
					off := (k*d[p]+i)*strip + j
					got := math.Float64frombits(leU64(blob[8*off:]))
					want := refTable[start+i][k*strip+j]
					if e := math.Abs(got - want); e > maxErr {
						maxErr = e
					}
				}
			}
		}
	}
	fmt.Printf("numeric check vs sequential reference: max |Δ| = %g (score %.3f)\n", maxErr, refScore)
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
