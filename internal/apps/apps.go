// Package apps implements the paper's four benchmark applications —
// Jacobi iteration (with and without prefetching), the RNA-pseudoknot
// pipelining benchmark, NAS Conjugate Gradient, and the full-scale
// Lanczos solver — plus Multigrid, the extension §6 names as in-progress
// future work.
//
// Each application supplies (a) a program.Program describing its
// structure in MHETA's vocabulary, and (b) an exec.State with two sides.
// Work is the timing plane: the work units a stage charges, computed from
// row counts, chunk sizes and (for CG) the seeded sparsity pattern, never
// from data values. Process and the message hooks are the data plane:
// real numeric kernels (relaxations, sparse/dense matrix-vector products,
// dynamic-programming tables) that compute genuine values, which the test
// suite checks against sequential references. The executor runs the data
// plane only under exec.Options.Numerics; kernels run on the host CPU and
// never touch the virtual clock.
package apps

import (
	"encoding/binary"
	"math"

	"mheta/internal/exec"
)

// f64 reads the float64 at element index i of a byte slice.
func f64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// putF64 writes the float64 at element index i of a byte slice.
func putF64(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
}

// f64sToBytes copies a float64 slice into a fresh byte slice.
func f64sToBytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		putF64(b, i, x)
	}
	return b
}

// bytesToF64s copies a byte slice into a fresh float64 slice.
func bytesToF64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = f64(b, i)
	}
	return xs
}

// cacheFactor is the memory-hierarchy effect MHETA does not model (§5.4
// limitation 1): the per-element compute cost depends mildly on the
// working-set (chunk) size, because small ICLAs reuse cache lines that
// large ones evict. The instrumented iteration measures a rate blended at
// the base distribution's chunk sizes; when a candidate distribution
// changes the ICLA, the actual rate shifts and MHETA cannot see it. The
// effect is deliberately small — out-of-core datasets "easily swamp the
// cache", so "the likelihood of this error occurring is small".
func cacheFactor(chunkBytes int) float64 {
	if chunkBytes <= 0 {
		return 1
	}
	// ±3% across three decades of chunk size, centred on 256 KiB.
	f := 1 + 0.015*math.Log2(float64(chunkBytes)/(256*1024))/10
	if f < 0.97 {
		f = 0.97
	}
	if f > 1.03 {
		f = 1.03
	}
	return f
}

// chunkWork scales nominal work units by the cache factor for a chunk of
// chunkBytes bytes.
func chunkWork(units float64, chunkBytes int) float64 {
	return units * cacheFactor(chunkBytes)
}

// hash64 is a tiny deterministic value generator for synthetic datasets:
// the same (seed, index) always yields the same value in [0, 1), on every
// rank, so each rank can materialise its block of the global dataset
// without communication.
func hash64(seed uint64, i int) float64 {
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// All returns the paper's benchmark set in evaluation order: Jacobi,
// CG, Lanczos, RNA (§5: "three scientific benchmarks ... In addition, we
// experimented with one full-scale application"). Sizes are the default
// experiment scale; see each constructor for the knobs.
func All() []*exec.App {
	return []*exec.App{
		NewJacobi(DefaultJacobiConfig()),
		NewCG(DefaultCGConfig()),
		NewLanczos(DefaultLanczosConfig()),
		NewRNA(DefaultRNAConfig()),
	}
}
