package apps

import (
	"fmt"

	"mheta/internal/exec"
	"mheta/internal/program"
)

// Multigrid: the application the paper names as in-progress future work
// ("We are currently implementing more applications (including Multigrid)
// to further increase the types of applications to test MHETA with a
// wider range of relative communication, computation, and I/O costs",
// §6). Each iteration is a two-grid V-cycle over a Rows×Cols grid
// distributed by rows:
//
//	S0 pre-smooth on the fine grid        → nearest-neighbour exchange
//	S1 restrict the residual to the coarse grid (even rows)
//	                                      → nearest-neighbour exchange
//	S2 smooth on the coarse grid          → nearest-neighbour exchange
//	S3 prolongate the correction and post-smooth
//	                                      → nearest-neighbour exchange
//	S4 compute the local residual         → global reduction
//
// Five parallel sections with four boundary exchanges per iteration give
// MHETA a communication-heavy profile unlike the other benchmarks. Rows
// are stored as (fine row ‖ workspace row), so one distributed variable
// carries both levels; coarse-grid work only touches even global rows,
// which — like CG's sparsity — makes per-row cost nonuniform in a way the
// model's uniform scaling cannot see.

// MGConfig sizes the benchmark.
type MGConfig struct {
	Rows, Cols int
	Iterations int
	// Smooths is the number of sweeps in each smoothing stage.
	Smooths int
	Seed    uint64
}

// DefaultMGConfig matches the experiment scale: 2560×320 (5 KiB combined
// rows, ~12.5 MiB total — out of core on the 1 MiB "small memory" nodes
// under Blk), 20 V-cycles.
func DefaultMGConfig() MGConfig {
	return MGConfig{Rows: 2560, Cols: 320, Iterations: 20, Smooths: 1, Seed: 0x316}
}

// mgElemBytes: fine row plus workspace row.
func (cfg MGConfig) mgElemBytes() int64 { return int64(cfg.Cols) * 8 * 2 }

// MGProgram builds the structural IR.
func MGProgram(cfg MGConfig) *program.Program {
	ms := int64(cfg.Cols) * 8 // boundary message: one fine row
	sweep := func(name string, work float64) program.Section {
		return program.Section{
			Name:  name,
			Tiles: 1,
			Stages: []program.Stage{{
				Name:        name,
				WorkPerElem: work,
				Uses:        []program.VarRef{{Name: "U", Write: true}},
			}},
			Comm:                program.CommNearestNeighbor,
			MsgBytesPerNeighbor: ms,
		}
	}
	return &program.Program{
		Name: "multigrid",
		Variables: []program.Variable{
			{Name: "U", ElemBytes: cfg.mgElemBytes(), Elems: cfg.Rows, Distributed: true, Sparse: true},
		},
		Sections: []program.Section{
			sweep("pre-smooth", float64(cfg.Cols)),
			sweep("restrict", float64(cfg.Cols)/2),
			sweep("coarse-smooth", float64(cfg.Cols)/2),
			sweep("prolong-post", float64(cfg.Cols)*1.5),
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
	}
}

// NewMultigrid builds the runnable application.
func NewMultigrid(cfg MGConfig) *exec.App {
	prog := MGProgram(cfg)
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &mgState{cfg: cfg}
		},
	}
}

// mgState implements the V-cycle kernels. All sweeps run top-to-bottom
// with an upward dependency only (like the Jacobi benchmark), carrying
// the previous updated row downward and using the upstream neighbour's
// previous-exchange row at block boundaries — so a sequential reference
// with the same halo protocol reproduces the values exactly.
type mgState struct {
	cfg MGConfig
	// halo[s] is the upstream boundary row for section s's sweep (fine
	// for S0/S3, workspace for S1/S2).
	halo map[int][]float64
	// carry is the last processed row of the current sweep; firstRow the
	// first, both captured per section for the exchanges. spare is the
	// sweep's second row buffer.
	carry, spare, firstRow []float64
	residual               float64
	// GlobalResidual is the reduction result, for verification.
	GlobalResidual float64
}

// mgInitRow generates initial fine-row values; the workspace starts zero.
func mgInitRow(cfg MGConfig, i int) []float64 {
	row := make([]float64, cfg.Cols)
	for j := range row {
		row[j] = hash64(cfg.Seed, i*cfg.Cols+j)
	}
	return row
}

func (s *mgState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		eb := int(cfg.mgElemBytes())
		block := make([]byte, nc.Count*eb)
		for i := 0; i < nc.Count; i++ {
			fine := mgInitRow(cfg, nc.Start+i)
			for j, v := range fine {
				putF64(block[i*eb:], j, v)
			}
			// workspace half stays zero
		}
		nc.R.Disk().Store("U", block)
	}
	s.halo = make(map[int][]float64)
	for sec := 0; sec < 4; sec++ {
		if nc.Start > 0 {
			if sec == 1 || sec == 2 {
				s.halo[sec] = make([]float64, cfg.Cols) // workspace starts zero
			} else {
				s.halo[sec] = mgInitRow(cfg, nc.Start-1)
			}
		} else {
			s.halo[sec] = make([]float64, cfg.Cols)
		}
	}
	s.carry = make([]float64, cfg.Cols)
	s.spare = make([]float64, cfg.Cols)
	s.firstRow = make([]float64, cfg.Cols)
}

// Work charges each sweep per row by section and parity: full rows on
// the fine grid (plus the coarse correction in S3), half rows on even
// global rows only for the coarse-grid sections S1 and S2.
func (s *mgState) Work(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows, chunkBytes int) float64 {
	cols := float64(s.cfg.Cols)
	work := 0.0
	switch sec {
	case 0:
		work = float64(nRows) * cols
	case 1, 2:
		evens := (gRow+nRows+1)/2 - (gRow+1)/2 // even rows in [gRow, gRow+nRows)
		work = float64(evens) * (cols / 2)
	case 3:
		work = float64(nRows) * (cols + cols/2)
	case 4:
		return float64(nRows)
	default:
		panic(fmt.Sprintf("multigrid: unexpected section %d", sec))
	}
	return chunkWork(work, chunkBytes)
}

func (s *mgState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) {
	cfg := s.cfg
	if sec == 4 {
		return
	}
	cols := cfg.Cols
	prev := s.halo[sec]
	if gRow > nc.Start {
		prev = s.carry
	} else {
		if sec == 0 {
			s.residual = 0
		}
	}
	// Each row's output alternates between carry and spare, as in Jacobi.
	rowOut, other := s.spare, s.carry
	for i := 0; i < nRows; i++ {
		gi := gRow + i
		base := i * 2 * cols  // fine row offset (in float64 slots)
		wsBase := base + cols // workspace row offset
		switch sec {
		case 0, 3: // smoothing sweeps on the fine grid
			for sw := 0; sw < cfg.Smooths; sw++ {
				for j := 0; j < cols; j++ {
					old := f64(buf, base+j)
					left := old
					if j > 0 {
						left = f64(buf, base+j-1)
					}
					v := 0.25*prev[j] + 0.5*old + 0.25*left
					if sec == 3 {
						// prolongation: add the coarse correction first
						v += 0.5 * f64(buf, wsBase+j)
					}
					putF64(buf, base+j, v)
					rowOut[j] = v
					if sec == 3 {
						s.residual += abs(v - old)
					}
				}
			}
		case 1: // restriction: residual of fine rows onto even-row workspace
			if gi%2 == 0 {
				for j := 0; j < cols; j++ {
					fine := f64(buf, base+j)
					r := fine - prev[j]
					putF64(buf, wsBase+j, 0.5*r)
					rowOut[j] = 0.5 * r
				}
			} else {
				for j := 0; j < cols; j++ {
					putF64(buf, wsBase+j, 0)
					rowOut[j] = 0
				}
			}
		case 2: // coarse smooth: workspace sweep on even rows
			if gi%2 == 0 {
				for j := 0; j < cols; j++ {
					old := f64(buf, wsBase+j)
					left := old
					if j > 0 {
						left = f64(buf, wsBase+j-1)
					}
					v := 0.25*prev[j] + 0.5*old + 0.25*left
					putF64(buf, wsBase+j, v)
					rowOut[j] = v
				}
			} else {
				copy(rowOut, prev) // pass the coarse row downward
			}
		}
		if gi == nc.Start {
			copy(s.firstRow, rowOut)
		}
		prev, rowOut, other = rowOut, other, rowOut
	}
	s.carry, s.spare = prev, rowOut
}

func (s *mgState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte {
	if dir > 0 {
		return f64sToBytes(s.carry)
	}
	return f64sToBytes(s.firstRow)
}

func (s *mgState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {
	if dir < 0 {
		s.halo[sec] = bytesToF64s(data)
	}
}

func (s *mgState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	return []float64{s.residual}
}

func (s *mgState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	s.GlobalResidual = vals[0]
}

// MGReference runs the identical V-cycle sequentially with the same
// block-halo protocol. It returns the final fine grid.
func MGReference(cfg MGConfig, blocks []int, iters int) [][]float64 {
	n := cfg.Rows
	fine := make([][]float64, n)
	ws := make([][]float64, n)
	for i := range fine {
		fine[i] = mgInitRow(cfg, i)
		ws[i] = make([]float64, cfg.Cols)
	}
	starts := make([]int, len(blocks))
	sum := 0
	for p, b := range blocks {
		starts[p] = sum
		sum += b
	}
	// halos[sec][p]
	halos := make([][][]float64, 4)
	for sec := range halos {
		halos[sec] = make([][]float64, len(blocks))
		for p := range blocks {
			if starts[p] > 0 {
				if sec == 1 || sec == 2 {
					halos[sec][p] = make([]float64, cfg.Cols)
				} else {
					halos[sec][p] = mgInitRow(cfg, starts[p]-1)
				}
			} else {
				halos[sec][p] = make([]float64, cfg.Cols)
			}
		}
	}
	upOf := func(p int) int {
		for q := p - 1; q >= 0; q-- {
			if blocks[q] > 0 {
				return q
			}
		}
		return -1
	}
	for it := 0; it < iters; it++ {
		for sec := 0; sec < 4; sec++ {
			lastRow := make([][]float64, len(blocks))
			for p, b := range blocks {
				if b == 0 {
					continue
				}
				prev := halos[sec][p]
				for i := starts[p]; i < starts[p]+b; i++ {
					var rowOut []float64
					switch sec {
					case 0, 3:
						rowOut = make([]float64, cfg.Cols)
						for sw := 0; sw < cfg.Smooths; sw++ {
							for j := 0; j < cfg.Cols; j++ {
								old := fine[i][j]
								left := old
								if j > 0 {
									left = fine[i][j-1]
								}
								v := 0.25*prev[j] + 0.5*old + 0.25*left
								if sec == 3 {
									v += 0.5 * ws[i][j]
								}
								fine[i][j] = v
								rowOut[j] = v
							}
						}
					case 1:
						rowOut = make([]float64, cfg.Cols)
						if i%2 == 0 {
							for j := 0; j < cfg.Cols; j++ {
								ws[i][j] = 0.5 * (fine[i][j] - prev[j])
								rowOut[j] = ws[i][j]
							}
						} else {
							for j := 0; j < cfg.Cols; j++ {
								ws[i][j] = 0
							}
						}
					case 2:
						rowOut = make([]float64, cfg.Cols)
						if i%2 == 0 {
							for j := 0; j < cfg.Cols; j++ {
								old := ws[i][j]
								left := old
								if j > 0 {
									left = ws[i][j-1]
								}
								v := 0.25*prev[j] + 0.5*old + 0.25*left
								ws[i][j] = v
								rowOut[j] = v
							}
						} else {
							copy(rowOut, prev)
						}
					}
					prev = rowOut
				}
				lastRow[p] = prev
			}
			// Exchange: each block's next-iteration halo for this section
			// is the upstream block's final sweep row.
			for p, b := range blocks {
				if b == 0 {
					continue
				}
				if up := upOf(p); up >= 0 {
					halos[sec][p] = append([]float64(nil), lastRow[up]...)
				}
			}
		}
	}
	return fine
}

// sanity check that the IR and kernel agree on the section count.
var _ = func() int {
	if n := len(MGProgram(DefaultMGConfig()).Sections); n != 5 {
		panic(fmt.Sprintf("multigrid: %d sections", n))
	}
	return 0
}()
