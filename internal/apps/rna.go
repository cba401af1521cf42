package apps

import (
	"mheta/internal/exec"
	"mheta/internal/program"
)

// RNA: the pipelining benchmark "based on RNA pseudoknots" — a wavefront
// dynamic program over an N×M table distributed by rows. The column space
// is cut into tiles; node p can only process tile k after receiving the
// last row of its upstream neighbour's strip for tile k, so execution
// pipelines down the node chain (§4.2.2's pipelined pattern, modelled by
// Equation 4). The table is read and written each pass, out of core when
// the node's block exceeds memory.
//
// The recurrence T[i][j] = 0.5·max(T[i−1][j], T[i][j−1]) + s(i,j) has the
// true wavefront dependency structure and — unlike block relaxation — a
// distribution-independent result, so tests verify the table against a
// sequential sweep bit-for-bit.

// RNAConfig sizes the benchmark.
type RNAConfig struct {
	Rows, Cols int
	Tiles      int
	Iterations int
	// Prefetch unrolls each tile's ICLA loop (Figure 6) — prefetching
	// inside a pipelined section, combining Equations 2 and 4.
	Prefetch bool
	Seed     uint64
}

// DefaultRNAConfig matches the experiment scale: a 4096×1024 table
// (32 MiB) in 8 column tiles, 10 iterations as in §5.1.
func DefaultRNAConfig() RNAConfig {
	return RNAConfig{Rows: 4096, Cols: 1024, Tiles: 8, Iterations: 10, Seed: 0x52A}
}

func (cfg RNAConfig) strip() int { return cfg.Cols / cfg.Tiles }

// rnaScore is the static per-cell score s(i,j).
func rnaScore(cfg RNAConfig, i, j int) float64 {
	return hash64(cfg.Seed, i*cfg.Cols+j)
}

// RNAProgram builds the structural IR: one pipelined section (the
// wavefront) followed by a score reduction.
func RNAProgram(cfg RNAConfig) *program.Program {
	if cfg.Cols%cfg.Tiles != 0 {
		panic("rna: Cols must be divisible by Tiles")
	}
	return &program.Program{
		Name: "rna",
		Variables: []program.Variable{
			{Name: "T", ElemBytes: int64(cfg.Cols) * 8, Elems: cfg.Rows, Distributed: true},
		},
		Sections: []program.Section{
			{
				Name:  "wavefront",
				Tiles: cfg.Tiles,
				Stages: []program.Stage{{
					Name:        "dp",
					WorkPerElem: float64(cfg.Cols),
					Uses:        []program.VarRef{{Name: "T", Write: true}},
					Prefetch:    cfg.Prefetch,
				}},
				Comm:                program.CommPipeline,
				MsgBytesPerNeighbor: int64(cfg.strip()) * 8,
			},
			{
				Name:  "score",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "local-score",
					WorkPerElem: 1,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
		},
		Iterations:   cfg.Iterations,
		WorkUnitCost: 4e-7,
	}
}

// NewRNA builds the runnable application.
func NewRNA(cfg RNAConfig) *exec.App {
	prog := RNAProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &rnaState{cfg: cfg}
		},
	}
}

type rnaState struct {
	cfg RNAConfig
	// haloStrip is the upstream neighbour's last-row strip for the
	// current tile (zeros for the pipeline head).
	haloStrip []float64
	// carryStrip is my last updated row's strip for the current tile,
	// captured while processing and forwarded downstream; spareStrip is
	// the sweep's second row buffer and zeroStrip the table's boundary.
	carryStrip, spareStrip, zeroStrip []float64
	// lastCol[i] is local row i's value at the rightmost column of the
	// previously processed tile (the T[i][j−1] dependency across strips).
	lastCol []float64
	// score accumulates the local score; GlobalScore holds the reduction
	// result for verification.
	score       float64
	GlobalScore float64
}

func (s *rnaState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		// The table starts at zero, laid out tile-major on disk.
		nc.R.Disk().Store("T", make([]byte, int64(nc.Count)*int64(cfg.Cols)*8))
	}
	s.haloStrip = make([]float64, cfg.strip())
	s.carryStrip = make([]float64, cfg.strip())
	s.spareStrip = make([]float64, cfg.strip())
	s.zeroStrip = make([]float64, cfg.strip())
	s.lastCol = make([]float64, nc.Count)
}

func (s *rnaState) Work(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows, chunkBytes int) float64 {
	switch sec {
	case 0:
		return chunkWork(float64(nRows)*float64(s.cfg.strip()), chunkBytes)
	case 1:
		return float64(nRows)
	default:
		panic("rna: unexpected section")
	}
}

func (s *rnaState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) {
	if sec != 0 {
		return
	}
	cfg := s.cfg
	strip := cfg.strip()
	colBase := tile * strip
	// up holds the previous row's strip values (current iteration).
	up := s.haloStrip
	if gRow > nc.Start {
		up = s.carryStrip
	} else if nc.ActiveIndex() == 0 {
		up = s.zeroStrip // table boundary row
	}
	if gRow == nc.Start && tile == 0 {
		s.score = 0
	}
	// Rows alternate between carryStrip and spareStrip, as in Jacobi.
	cur, other := s.spareStrip, s.carryStrip
	for i := 0; i < nRows; i++ {
		li := gRow - nc.Start + i
		left := 0.0
		if tile > 0 {
			left = s.lastCol[li]
		}
		base := i * strip
		for j := 0; j < strip; j++ {
			upv := up[j]
			m := upv
			if left > m {
				m = left
			}
			v := 0.5*m + rnaScore(cfg, gRow+i, colBase+j)
			putF64(buf, base+j, v)
			cur[j] = v
			left = v
		}
		s.lastCol[li] = left
		up, cur, other = cur, other, cur
		if tile == cfg.Tiles-1 {
			s.score += left // row's final-column value
		}
	}
	s.carryStrip, s.spareStrip = up, cur
}

func (s *rnaState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	return f64sToBytes(s.carryStrip)
}

func (s *rnaState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {
	s.haloStrip = bytesToF64s(data)
}

func (s *rnaState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	return []float64{s.score}
}

func (s *rnaState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	s.GlobalScore = vals[0]
}

// RNAReference computes the table sequentially: a plain row-major sweep
// per iteration, which the pipelined parallel version reproduces exactly
// (the wavefront decomposition does not change the arithmetic). It
// returns the final table and total score (Σ of last-column values).
func RNAReference(cfg RNAConfig, iters int) ([][]float64, float64) {
	t := make([][]float64, cfg.Rows)
	for i := range t {
		t[i] = make([]float64, cfg.Cols)
	}
	score := 0.0
	for it := 0; it < iters; it++ {
		score = 0
		for i := 0; i < cfg.Rows; i++ {
			for j := 0; j < cfg.Cols; j++ {
				up := 0.0
				if i > 0 {
					up = t[i-1][j]
				}
				left := 0.0
				if j > 0 {
					left = t[i][j-1]
				}
				m := up
				if left > m {
					m = left
				}
				t[i][j] = 0.5*m + rnaScore(cfg, i, j)
			}
			score += t[i][cfg.Cols-1]
		}
	}
	return t, score
}
