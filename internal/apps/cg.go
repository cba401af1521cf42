package apps

import (
	"fmt"
	"math"
	"sync"

	"mheta/internal/exec"
	"mheta/internal/program"
)

// Conjugate Gradient, after the NAS benchmark: repeated sparse
// matrix-vector products over a large symmetric positive-definite matrix
// distributed by rows, punctuated by dot-product reductions and a
// gather of the updated direction vector.
//
// The matrix is the application MHETA struggles with (§5.4 limitation 3):
// the on-disk representation pads every row to a fixed slot count, so
// MHETA sees uniform elements, but the *work* per row follows the true
// nonzero count, which varies along the row space. The instrumented
// iteration measures a per-element compute rate blended over the base
// distribution's rows; scaling that rate by row counts mispredicts any
// distribution whose blocks land on differently-dense regions — "there is
// not a simple correlation between number of rows and number of elements
// per row, resulting in slight load imbalances in CG that our model did
// not predict".

// CGConfig sizes the benchmark.
type CGConfig struct {
	N          int // matrix dimension
	MaxBand    int // maximum half-bandwidth (peak of the density wave)
	MinBand    int // minimum half-bandwidth
	Iterations int
	Seed       uint64
}

// DefaultCGConfig matches the experiment scale: N=8192 with half-bandwidth
// varying 8..48 along the rows (padded rows of 112 slots ≈ 1.8 KiB; a
// ~14 MiB matrix), 10 iterations as in §5.1.
func DefaultCGConfig() CGConfig {
	return CGConfig{N: 8192, MaxBand: 48, MinBand: 8, Iterations: 10, Seed: 0xC6}
}

// cgSlots is the padded slot count per row: the widest possible band.
func (cfg CGConfig) cgSlots() int { return 2*cfg.MaxBand + 1 }

// cgElemBytes is the padded on-disk row size: 16 bytes per slot (column
// index + value).
func (cfg CGConfig) cgElemBytes() int64 { return int64(cfg.cgSlots()) * 16 }

// band returns row i's half-bandwidth w(i): a smooth wave along the row
// space, so nonzero density varies by region. A[i][j] ≠ 0 iff
// |i−j| ≤ min(w(i), w(j)) — a symmetric condition, so A is symmetric.
func (cfg CGConfig) band(i int) int {
	x := float64(i) / float64(cfg.N)
	// Three full density waves across the matrix.
	s := 0.5 + 0.5*sinApprox(2*pi*3*x)
	w := cfg.MinBand + int(s*float64(cfg.MaxBand-cfg.MinBand))
	if w < 1 {
		w = 1
	}
	return w
}

const pi = 3.141592653589793

// sinApprox is a deterministic sine sufficient for density shaping
// (avoids importing math just for the pattern; accuracy is irrelevant,
// determinism is not). Bhaskara's approximation, extended to all phases.
func sinApprox(x float64) float64 {
	// Reduce to [0, 2π).
	x -= float64(int(x/(2*pi))) * 2 * pi
	if x < 0 {
		x += 2 * pi
	}
	sign := 1.0
	if x > pi {
		x -= pi
		sign = -1
	}
	return sign * 16 * x * (pi - x) / (5*pi*pi - 4*x*(pi-x))
}

// cgRow materialises row i: slot pairs (col, val) for the true nonzeros,
// padded with (-1, 0). Diagonal dominance makes A positive definite.
func cgRow(cfg CGConfig, i int) []byte {
	slots := cfg.cgSlots()
	row := make([]byte, 16*slots)
	wi := cfg.band(i)
	k := 0
	var offSum float64
	put := func(col int, val float64) {
		putF64(row, 2*k, float64(col))
		putF64(row, 2*k+1, val)
		k++
	}
	for j := i - wi; j <= i+wi; j++ {
		if j < 0 || j >= cfg.N || j == i {
			continue
		}
		d := i - j
		if d < 0 {
			d = -d
		}
		if d > cfg.band(j) {
			continue // symmetric band condition
		}
		v := -1.0 / float64(1+d)
		put(j, v)
		offSum += 1.0 / float64(1+d)
	}
	put(i, 2*offSum+1) // diagonal: dominant → SPD
	for ; k < slots; k++ {
		putF64(row, 2*k, -1)
		putF64(row, 2*k+1, 0)
	}
	return row
}

// cgNNZ counts row i's true nonzeros (the work units of the spmv kernel).
func cgNNZ(cfg CGConfig, i int) int {
	wi := cfg.band(i)
	n := 1 // diagonal
	for j := i - wi; j <= i+wi; j++ {
		if j < 0 || j >= cfg.N || j == i {
			continue
		}
		d := i - j
		if d < 0 {
			d = -d
		}
		if d <= cfg.band(j) {
			n++
		}
	}
	return n
}

// cgNNZTable returns every row's true nonzero count. A count is at most
// cgSlots, so uint16 suffices for any practical band and keeps the table,
// which lives as long as the application, at two bytes a row.
func cgNNZTable(cfg CGConfig) []uint16 {
	if cfg.cgSlots() > math.MaxUint16 {
		panic(fmt.Sprintf("cg: %d slots per row overflow the nonzero table", cfg.cgSlots()))
	}
	nnz := make([]uint16, cfg.N)
	for i := range nnz {
		nnz[i] = uint16(cgNNZ(cfg, i))
	}
	return nnz
}

// cgB returns the right-hand side b.
func cgB(cfg CGConfig, i int) float64 { return 1 + hash64(cfg.Seed, i) }

// CGProgram builds the structural IR: three parallel sections per
// iteration — the out-of-core spmv ending in a dot-product reduction, the
// x/r update ending in a norm reduction, and the direction update ending
// in the p-vector gather (an N-element sum reduction).
func CGProgram(cfg CGConfig) *program.Program {
	return &program.Program{
		Name: "cg",
		Variables: []program.Variable{
			{Name: "A", ElemBytes: cfg.cgElemBytes(), Elems: cfg.N, Distributed: true, ReadOnly: true, Sparse: true},
		},
		Sections: []program.Section{
			{
				Name:  "spmv",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "q=Ap",
					WorkPerElem: float64(cfg.MaxBand + cfg.MinBand),
					Uses:        []program.VarRef{{Name: "A"}},
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
			{
				Name:  "xr-update",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "x+=ap,r-=aq",
					WorkPerElem: 4,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: 8,
			},
			{
				Name:  "p-update",
				Tiles: 1,
				Stages: []program.Stage{{
					Name:        "p=r+bp",
					WorkPerElem: 2,
				}},
				Comm:        program.CommReduction,
				ReduceBytes: int64(cfg.N) * 8,
			},
		},
		Iterations:   cfg.Iterations,
		WorkUnitCost: 2e-6,
	}
}

// NewCG builds the runnable application. The nonzero table behind the
// spmv's work units is built once per application, on first use, and
// shared read-only by every rank and run.
func NewCG(cfg CGConfig) *exec.App {
	prog := CGProgram(cfg)
	nnz := sync.OnceValue(func() []uint16 { return cgNNZTable(cfg) })
	return &exec.App{
		Prog: prog,
		NewState: func(nc *exec.NodeCtx) exec.State {
			return &cgState{cfg: cfg, nnz: nnz()}
		},
	}
}

type cgState struct {
	cfg CGConfig
	nnz []uint16 // per-row nonzero counts, see cgNNZTable
	// Replicated direction vector (gathered each iteration).
	p []float64
	// Local blocks.
	x, r, q []float64
	// Scalars of the current iteration.
	rho, alpha, beta float64
	pq               float64 // local then global p·q
	// Rho is exposed for verification (global r·r after the iteration).
	Rho float64
}

func (s *cgState) Init(nc *exec.NodeCtx) {
	cfg := s.cfg
	if nc.Count > 0 {
		block := make([]byte, int64(nc.Count)*cfg.cgElemBytes())
		for i := 0; i < nc.Count; i++ {
			copy(block[int64(i)*cfg.cgElemBytes():], cgRow(cfg, nc.Start+i))
		}
		nc.R.Disk().Store("A", block)
	}
	// x=0, r=b, p=r, rho = r·r (global, computable locally since b is
	// deterministic).
	s.p = make([]float64, cfg.N)
	for i := range s.p {
		s.p[i] = cgB(cfg, i)
	}
	s.x = make([]float64, nc.Count)
	s.r = make([]float64, nc.Count)
	s.q = make([]float64, nc.Count)
	s.rho = 0
	for i := 0; i < cfg.N; i++ {
		s.rho += cgB(cfg, i) * cgB(cfg, i)
	}
	for i := 0; i < nc.Count; i++ {
		s.r[i] = cgB(cfg, nc.Start+i)
	}
}

func (s *cgState) Work(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows, chunkBytes int) float64 {
	switch sec {
	case 0: // one unit per true nonzero of the chunk's rows
		nnz := 0
		for _, n := range s.nnz[gRow : gRow+nRows] {
			nnz += int(n)
		}
		return chunkWork(float64(nnz), chunkBytes)
	case 1:
		return 4 * float64(nRows)
	case 2:
		return 2 * float64(nRows)
	default:
		panic("cg: unexpected section")
	}
}

func (s *cgState) Process(nc *exec.NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte) {
	cfg := s.cfg
	switch sec {
	case 0: // q_local = A·p over a chunk of rows; accumulate p·q
		slots := cfg.cgSlots()
		if gRow == nc.Start {
			s.pq = 0
		}
		for i := 0; i < nRows; i++ {
			gi := gRow + i
			li := gi - nc.Start
			sum := 0.0
			base := i * slots * 2
			for k := 0; k < slots; k++ {
				col := f64(buf, base+2*k)
				if col < 0 {
					continue
				}
				sum += f64(buf, base+2*k+1) * s.p[int(col)]
			}
			s.q[li] = sum
			s.pq += s.p[gi] * sum
		}
	case 1: // x += αp, r −= αq over local rows; accumulate r·r
		// alpha was fixed by section 0's reduction.
		local := 0.0
		for li := 0; li < nc.Count; li++ {
			gi := nc.Start + li
			s.x[li] += s.alpha * s.p[gi]
			s.r[li] -= s.alpha * s.q[li]
			local += s.r[li] * s.r[li]
		}
		s.pq = local // reuse as the value carried into the reduction
	case 2: // p = r + βp over local rows (gathered by the reduction)
		for li := 0; li < nc.Count; li++ {
			gi := nc.Start + li
			s.p[gi] = s.r[li] + s.beta*s.p[gi]
		}
	default:
		panic("cg: unexpected section")
	}
}

func (s *cgState) BoundaryMsg(nc *exec.NodeCtx, sec, tile, dir int) []byte { return nil }

func (s *cgState) OnBoundary(nc *exec.NodeCtx, sec, tile, dir int, data []byte) {}

func (s *cgState) ReduceVal(nc *exec.NodeCtx, sec int) []float64 {
	switch sec {
	case 0, 1:
		return []float64{s.pq}
	case 2:
		// Gather: contribute my block of the new p, zeros elsewhere; the
		// sum reduction assembles the full vector on every rank.
		vals := make([]float64, s.cfg.N)
		for li := 0; li < nc.Count; li++ {
			vals[nc.Start+li] = s.p[nc.Start+li]
		}
		return vals
	default:
		panic("cg: unexpected reduction")
	}
}

func (s *cgState) OnReduce(nc *exec.NodeCtx, sec int, vals []float64) {
	switch sec {
	case 0:
		pq := vals[0]
		if pq != 0 {
			s.alpha = s.rho / pq
		} else {
			s.alpha = 0
		}
	case 1:
		rhoNew := vals[0]
		if s.rho != 0 {
			s.beta = rhoNew / s.rho
		} else {
			s.beta = 0
		}
		s.rho = rhoNew
		s.Rho = rhoNew
	case 2:
		copy(s.p, vals)
	}
}

// CGReference runs the same CG sequentially (same block-summation order
// for the dot products, so results match the parallel run up to the
// reduction tree's floating-point reassociation). It returns the residual
// norms rho after each iteration.
func CGReference(cfg CGConfig, iters int) []float64 {
	n := cfg.N
	// Materialise the matrix rows once.
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = cgRow(cfg, i)
	}
	slots := cfg.cgSlots()
	p := make([]float64, n)
	r := make([]float64, n)
	x := make([]float64, n)
	q := make([]float64, n)
	rho := 0.0
	for i := 0; i < n; i++ {
		p[i] = cgB(cfg, i)
		r[i] = p[i]
		rho += r[i] * r[i]
	}
	var rhos []float64
	for it := 0; it < iters; it++ {
		pq := 0.0
		for i := 0; i < n; i++ {
			sum := 0.0
			for k := 0; k < slots; k++ {
				col := f64(rows[i], 2*k)
				if col < 0 {
					continue
				}
				sum += f64(rows[i], 2*k+1) * p[int(col)]
			}
			q[i] = sum
			pq += p[i] * sum
		}
		alpha := 0.0
		if pq != 0 {
			alpha = rho / pq
		}
		rhoNew := 0.0
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
			rhoNew += r[i] * r[i]
		}
		beta := 0.0
		if rho != 0 {
			beta = rhoNew / rho
		}
		rho = rhoNew
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
		rhos = append(rhos, rho)
	}
	return rhos
}
