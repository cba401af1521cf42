package apps

import (
	"fmt"

	"mheta/internal/exec"
	"mheta/internal/program"
)

// Jacobi iteration: the paper's simplest benchmark (Figure 1's shape).
// A dense Rows×Cols grid is distributed by rows; each iteration sweeps
// the local block top-to-bottom updating rows in place from the row above
// (block-relaxation: the halo row comes from the upstream neighbour's
// state at the end of the previous iteration), then exchanges boundary
// rows with both neighbours, then computes a local residual that a global
// reduction combines — the canonical two-section, nearest-neighbour +
// reduction structure.
//
// The grid is read *and written* each pass, so out-of-core nodes pay both
// read and write latencies per ICLA (§4.2.1: "Any time the node reads
// data from disk, there is a corresponding write ... such as in our
// Jacobi application").

// JacobiConfig sizes the benchmark.
type JacobiConfig struct {
	Rows, Cols int
	Iterations int
	// Prefetch unrolls the ICLA loop (Figure 6) — the "Jacobi with
	// prefetching" variant of Figure 9's top-right panel.
	Prefetch bool
	// IterWeights makes iterations nonuniform (§3.1's optional case, e.g.
	// an adaptive solver doing less work as it converges). Nil = uniform.
	IterWeights []float64
	Seed        uint64
}

// DefaultJacobiConfig matches the experiment scale: a 4096×512 float64
// grid (16 MiB — in core on unconstrained 8 MiB nodes under Blk, out of
// core on 1 MiB "small memory" nodes) for 100 iterations, as in §5.1.
func DefaultJacobiConfig() JacobiConfig {
	return JacobiConfig{Rows: 4096, Cols: 512, Iterations: 100, Seed: 0x1ACB1}
}

// JacobiProgram builds the structural IR.
func JacobiProgram(cfg JacobiConfig) *program.Program {
	name := "jacobi"
	if cfg.Prefetch {
		name = "jacobi-prefetch"
	}
	return &program.Program{
		Name: name,
		Variables: []program.Variable{
			{Name: "B", ElemBytes: int64(cfg.Cols) * 8, Elems: cfg.Rows, Distributed: true},
		},
		Sections: []program.Section{
			{
				Name:  "relax",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "update",
					WorkPerElem: float64(cfg.Cols),
					Uses:        []program.VarRef{{Name: "B", Write: true}},
					Prefetch:    cfg.Prefetch,
				}},
				Comm:                program.CommNearestNeighbor,
				MsgBytesPerNeighbor: int64(cfg.Cols) * 8,
			},
			{
				Name:  "residual",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "local-residual",
					WorkPerElem: 1,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
		},
		Iterations:   cfg.Iterations,
		WorkUnitCost: 4e-7,
		IterWeights:  cfg.IterWeights,
	}
}

// NewJacobi builds the runnable application.
func NewJacobi(cfg JacobiConfig) *exec.App {
	prog := JacobiProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &jacobiState{cfg: cfg}
		},
	}
}

type jacobiState struct {
	cfg JacobiConfig
	// haloUp is the upstream neighbour's last row (previous iteration's
	// values); for the first active node it is the fixed boundary row.
	haloUp []float64
	// haloDown is the downstream neighbour's first row (unused by the
	// upward-dependent kernel but exchanged, matching the benchmark's
	// bidirectional boundary traffic).
	haloDown []float64
	// carry is the last updated row, fed to the next chunk and sent
	// downstream after the sweep; spare is the sweep's second row buffer.
	carry, spare []float64
	// firstRow is the block's first row after the sweep (sent upstream).
	firstRow []float64
	// residual accumulates Σ|Δ| over the local sweep.
	residual float64
	// GlobalResidual is the reduction result, exposed for verification.
	GlobalResidual float64
}

// jacobiBoundaryRow produces the initial value of global row i.
func jacobiBoundaryRow(cfg JacobiConfig, i int) []float64 {
	row := make([]float64, cfg.Cols)
	for j := range row {
		row[j] = hash64(cfg.Seed, i*cfg.Cols+j)
	}
	return row
}

func (s *jacobiState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		// Lay the local block out on disk (Local Placement rule).
		block := make([]byte, int64(nc.Count)*int64(cfg.Cols)*8)
		for i := 0; i < nc.Count; i++ {
			for j := 0; j < cfg.Cols; j++ {
				putF64(block, i*cfg.Cols+j, hash64(cfg.Seed, (nc.Start+i)*cfg.Cols+j))
			}
		}
		nc.R.Disk().Store("B", block)
	}
	// Initial halos come from the initial dataset, which every rank can
	// materialise deterministically.
	if nc.Start > 0 {
		s.haloUp = jacobiBoundaryRow(cfg, nc.Start-1)
	} else {
		s.haloUp = jacobiBoundaryRow(cfg, -1) // fixed synthetic boundary
	}
	if nc.Start+nc.Count < cfg.Rows {
		s.haloDown = jacobiBoundaryRow(cfg, nc.Start+nc.Count)
	} else {
		s.haloDown = make([]float64, cfg.Cols)
	}
	s.carry = make([]float64, cfg.Cols)
	s.spare = make([]float64, cfg.Cols)
	s.firstRow = make([]float64, cfg.Cols)
}

func (s *jacobiState) Work(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows, chunkBytes int) float64 {
	switch sec {
	case 0: // relax sweep over a chunk of B
		return chunkWork(float64(nRows)*float64(s.cfg.Cols), chunkBytes)
	case 1: // local residual bookkeeping (cheap, in-memory)
		return float64(nRows)
	default:
		panic(fmt.Sprintf("jacobi: unexpected section %d", sec))
	}
}

func (s *jacobiState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) {
	if sec != 0 {
		return
	}
	prev := s.haloUp
	if gRow > nc.Start {
		prev = s.carry
	} else {
		s.residual = 0
	}
	// Updated rows alternate between carry and spare, so the row above is
	// never overwritten while it is read; carry ends as the last row.
	cols := s.cfg.Cols
	cur, other := s.spare, s.carry
	for i := 0; i < nRows; i++ {
		base := i * cols
		for j := 0; j < cols; j++ {
			old := f64(buf, base+j)
			left := old
			if j > 0 {
				left = f64(buf, base+j-1)
			}
			up := prev[j]
			v := 0.25*up + 0.5*old + 0.25*left
			putF64(buf, base+j, v)
			cur[j] = v
			s.residual += abs(v - old)
		}
		if gRow+i == nc.Start {
			copy(s.firstRow, cur)
		}
		prev, cur, other = cur, other, cur
	}
	s.carry, s.spare = prev, cur
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (s *jacobiState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	if dir > 0 {
		return f64sToBytes(s.carry) // my last row, downstream
	}
	return f64sToBytes(s.firstRow) // my first row, upstream
}

func (s *jacobiState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {
	if dir < 0 {
		s.haloUp = bytesToF64s(data) // from the upstream neighbour
	} else {
		s.haloDown = bytesToF64s(data)
	}
}

func (s *jacobiState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	return []float64{s.residual}
}

func (s *jacobiState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	s.GlobalResidual = vals[0]
}

// JacobiReference runs the identical block-relaxation sequentially for
// verification: same distribution, same halo protocol (halos update at
// iteration boundaries), same kernel. It returns the final grid and the
// final global residual.
func JacobiReference(cfg JacobiConfig, blocks []int, iters int) ([][]float64, float64) {
	grid := make([][]float64, cfg.Rows)
	for i := range grid {
		grid[i] = jacobiBoundaryRow(cfg, i)
	}
	starts := make([]int, len(blocks))
	s := 0
	for p, b := range blocks {
		starts[p] = s
		s += b
	}
	halos := make([][]float64, len(blocks))
	for p := range blocks {
		if starts[p] > 0 {
			halos[p] = append([]float64(nil), grid[starts[p]-1]...)
		} else {
			halos[p] = jacobiBoundaryRow(cfg, -1)
		}
	}
	residual := 0.0
	for it := 0; it < iters; it++ {
		residual = 0
		// All blocks sweep using halos from the previous iteration.
		for p, b := range blocks {
			if b == 0 {
				continue
			}
			prev := halos[p]
			for i := starts[p]; i < starts[p]+b; i++ {
				for j := 0; j < cfg.Cols; j++ {
					old := grid[i][j]
					left := old
					if j > 0 {
						left = grid[i][j-1]
					}
					v := 0.25*prev[j] + 0.5*old + 0.25*left
					grid[i][j] = v
					residual += abs(v - old)
				}
				prev = grid[i]
			}
		}
		// Exchange: each block's halo becomes the upstream block's final
		// last row.
		for p, b := range blocks {
			if b == 0 {
				continue
			}
			// Find upstream active block.
			up := -1
			for q := p - 1; q >= 0; q-- {
				if blocks[q] > 0 {
					up = q
					break
				}
			}
			if up >= 0 {
				halos[p] = append([]float64(nil), grid[starts[up]+blocks[up]-1]...)
			}
		}
	}
	return grid, residual
}
