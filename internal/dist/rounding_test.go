package dist

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
	"testing"

	"mheta/internal/vclock"
)

// oracleRound is largest-remainder rounding as it stood before the
// linear-time selection: the quadratic leftover loop, copied verbatim
// (with a fresh fracs buffer), kept as the bit-identity reference.
func oracleRound(total int, wsum float64, ws []float64) Distribution {
	n := len(ws)
	dst := make(Distribution, n)
	fracs := make([]float64, n)
	assigned := 0
	for i := 0; i < n; i++ {
		w := ws[i]
		if w <= 0 {
			dst[i] = 0
			fracs[i] = 0 // still a (last-resort) candidate, as before
			continue
		}
		exact := float64(total) * w / wsum
		floor := int(exact)
		dst[i] = floor
		fracs[i] = exact - float64(floor)
		assigned += floor
	}
	// Hand the leftover elements to the largest fractional parts; ties
	// break toward lower index for determinism.
	for assigned < total {
		best, bestFrac := 0, fracs[0]
		for i := 1; i < n; i++ {
			if fracs[i] > bestFrac {
				best, bestFrac = i, fracs[i]
			}
		}
		fracs[best] = -1
		dst[best]++
		assigned++
	}
	return dst
}

// oracleProportional is Proportional over oracleRound (finite weights
// with a positive sum only).
func oracleProportional(total int, weights []float64) Distribution {
	var wsum float64
	for _, w := range weights {
		if w > 0 {
			wsum += w
		}
	}
	return oracleRound(total, wsum, weights)
}

// oracleLerp is Lerp over oracleRound.
func oracleLerp(a, b Distribution, t float64) Distribution {
	switch {
	case t <= 0:
		return a.Clone()
	case t >= 1:
		return b.Clone()
	}
	ws := make([]float64, len(a))
	var wsum float64
	for i := range a {
		ws[i] = (1-t)*float64(a[i]) + t*float64(b[i])
		if ws[i] > 0 {
			wsum += ws[i]
		}
	}
	if wsum <= 0 {
		return a.Clone()
	}
	return oracleRound(a.Total(), wsum, ws)
}

// drawNodes picks a node count spread over the three scratch tiers: half
// the draws at most 16, a quarter in (16, 64], a quarter in (64, 1100].
func drawNodes(nz *vclock.Noise) int {
	switch u := nz.Float64(); {
	case u < 0.5:
		return 1 + nz.Intn(16)
	case u < 0.75:
		return 17 + nz.Intn(48)
	default:
		return 65 + nz.Intn(1036)
	}
}

// drawWeights returns n weights in one of the shapes the searches and
// scenarios produce: continuous, small integers (tie-heavy), all equal,
// Genetic's crossover of two integer parents, or continuous with zero and
// negative entries sprinkled in. At least one weight is positive.
func drawWeights(nz *vclock.Noise, n int) []float64 {
	w := make([]float64, n)
	shape := nz.Intn(5)
	mix := nz.Float64()
	for i := range w {
		switch shape {
		case 0:
			w[i] = 0.05 + nz.Float64()
		case 1:
			w[i] = float64(nz.Intn(4))
		case 2:
			w[i] = 3
		case 3:
			w[i] = mix*float64(nz.Intn(50)) + (1-mix)*float64(nz.Intn(50))
		default:
			switch u := nz.Float64(); {
			case u < 0.2:
				w[i] = 0
			case u < 0.3:
				w[i] = -nz.Float64()
			default:
				w[i] = nz.Float64() * 100
			}
		}
	}
	w[nz.Intn(n)] += 1
	return w
}

// drawTotal returns an element count that is sometimes below n (fewer
// elements than nodes), sometimes a few per node as in wide clusters, and
// sometimes large.
func drawTotal(nz *vclock.Noise, n int) int {
	switch nz.Intn(3) {
	case 0:
		return nz.Intn(n + 1)
	case 1:
		return 4*n + nz.Intn(n+1)
	default:
		return nz.Intn(200000)
	}
}

func TestProportionalIntoMatchesReference(t *testing.T) {
	nz := vclock.NewNoise(7, 0)
	var dst Distribution
	for trial := 0; trial < 1500; trial++ {
		n := drawNodes(nz)
		weights := drawWeights(nz, n)
		total := drawTotal(nz, n)
		want := oracleProportional(total, weights)
		dst = ProportionalInto(dst, total, weights)
		if !dst.Equal(want) {
			t.Fatalf("trial %d: ProportionalInto(%d, %v) = %v, reference = %v",
				trial, total, weights, dst, want)
		}
		if got := Proportional(total, weights); !got.Equal(want) {
			t.Fatalf("trial %d: Proportional diverged: %v vs %v", trial, got, want)
		}
	}
}

// TestRoundingMatchesOracleForAnyNormaliser feeds the rounding a wsum
// other than the weights' sum, which no public caller does, to reach the
// branches real inputs only hit through float rounding: a leftover k ≥ n
// (node 0 takes the surplus) and a negative leftover.
func TestRoundingMatchesOracleForAnyNormaliser(t *testing.T) {
	nz := vclock.NewNoise(23, 0)
	for trial := 0; trial < 600; trial++ {
		n := drawNodes(nz)
		ws := drawWeights(nz, n)
		total := nz.Intn(8*n + 1) // keeps the O(n·k) reference quick
		var wsum float64
		for _, w := range ws {
			if w > 0 {
				wsum += w
			}
		}
		wsum *= []float64{0.5, 0.9, 1, 1.1, 3}[trial%5]
		want := oracleRound(total, wsum, ws)
		scratch := make([]float64, 2*n)
		got := largestRemainderInto(nil, total, wsum, ws, scratch[:n], scratch[n:])
		if !got.Equal(want) {
			t.Fatalf("trial %d: n=%d total=%d wsum=%v: got %v, reference %v",
				trial, n, total, wsum, got, want)
		}
	}
}

// TestSelectRank checks every rank of continuous and tie-heavy inputs
// against a sorted copy, with the partition limit at 0 (sort at once), 1
// (sort after one partition) and the production O(log n) limit.
func TestSelectRank(t *testing.T) {
	nz := vclock.NewNoise(31, 0)
	for trial := 0; trial < 200; trial++ {
		n := 1 + nz.Intn(40)
		in := make([]float64, n)
		for i := range in {
			if trial%2 == 0 {
				in[i] = nz.Float64()
			} else {
				in[i] = float64(nz.Intn(3)) / 4
			}
		}
		sorted := slices.Clone(in)
		slices.Sort(sorted)
		for _, limit := range []int{0, 1, 2 * bits.Len(uint(n))} {
			for r := 0; r < n; r++ {
				s := slices.Clone(in)
				v, above := selectRank(s, r, limit)
				want := 0
				for _, x := range in {
					if x > sorted[r] {
						want++
					}
				}
				if v != sorted[r] || above != want {
					t.Fatalf("selectRank(%v, %d, %d) = (%v, %d), want (%v, %d)",
						in, r, limit, v, above, sorted[r], want)
				}
			}
		}
	}
}

func TestProportionalPanicsOnNonFiniteWeights(t *testing.T) {
	for _, ws := range [][]float64{
		{1, math.NaN(), 2},
		{1, math.Inf(1)},
		{math.Inf(-1), 1},
		{math.MaxFloat64, math.MaxFloat64}, // finite, but the sum overflows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Proportional(10, %v) did not panic", ws)
				}
			}()
			Proportional(10, ws)
		}()
	}
}

func TestLerpIntoMatchesLerp(t *testing.T) {
	nz := vclock.NewNoise(13, 0)
	var dst Distribution
	for trial := 0; trial < 500; trial++ {
		n := 8
		if trial%4 == 3 {
			n = 65 + nz.Intn(1036)
		}
		total := 900
		if trial%8 == 7 {
			total = 4 * n
		}
		a := make(Distribution, n)
		b := make(Distribution, n)
		remA, remB := total, total
		for j := 0; j < n-1; j++ {
			a[j] = int(nz.Float64() * float64(remA) / 2)
			b[j] = int(nz.Float64() * float64(remB) / 2)
			remA -= a[j]
			remB -= b[j]
		}
		a[n-1], b[n-1] = remA, remB
		for _, tt := range []float64{-0.5, 0, 0.25, 1 / 3.0, 0.5, 0.99, 1, 2} {
			want := oracleLerp(a, b, tt)
			if got := Lerp(a, b, tt); !got.Equal(want) {
				t.Fatalf("trial %d n=%d t=%v: Lerp = %v, reference = %v", trial, n, tt, got, want)
			}
			dst = LerpInto(dst, a, b, tt)
			if !dst.Equal(want) {
				t.Fatalf("trial %d n=%d t=%v: LerpInto = %v, reference = %v", trial, n, tt, dst, want)
			}
			if err := dst.Validate(total); err != nil {
				t.Fatalf("trial %d t=%v: %v", trial, tt, err)
			}
		}
	}
}

func TestIntoVariantsReuseWithoutAllocating(t *testing.T) {
	weights := []float64{3, 0, 1, 5, 2, 0.5, 4, 1}
	a := Block(1000, 8)
	b := Proportional(1000, weights)
	dst := make(Distribution, 8)
	if allocs := testing.AllocsPerRun(200, func() {
		dst = ProportionalInto(dst, 1000, weights)
	}); allocs != 0 {
		t.Fatalf("ProportionalInto allocates %v/op with capacity available, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		dst = LerpInto(dst, a, b, 0.37)
	}); allocs != 0 {
		t.Fatalf("LerpInto allocates %v/op with capacity available, want 0", allocs)
	}
}

// TestIntoVariantsAllocationTiers pins the scratch tiers: the stack
// serves up to 64 nodes, and beyond that one heap scratch per call.
func TestIntoVariantsAllocationTiers(t *testing.T) {
	for _, tc := range []struct {
		n      int
		allocs float64
	}{{64, 0}, {1024, 1}} {
		nz := vclock.NewNoise(uint64(tc.n), 0)
		weights := make([]float64, tc.n)
		for i := range weights {
			weights[i] = 0.05 + nz.Float64()
		}
		total := 4 * tc.n
		a := Block(total, tc.n)
		b := Proportional(total, weights)
		dst := make(Distribution, tc.n)
		if allocs := testing.AllocsPerRun(100, func() {
			dst = ProportionalInto(dst, total, weights)
		}); allocs != tc.allocs {
			t.Errorf("nodes=%d: ProportionalInto allocates %v/op with capacity available, want %v", tc.n, allocs, tc.allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			dst = LerpInto(dst, a, b, 0.37)
		}); allocs != tc.allocs {
			t.Errorf("nodes=%d: LerpInto allocates %v/op with capacity available, want %v", tc.n, allocs, tc.allocs)
		}
	}
}

// FuzzProportional compares Proportional, ProportionalInto and LerpInto
// with the quadratic reference on arbitrary inputs. The first two bytes
// give total, the third a repeat count, and each further byte one weight
// (the weights repeat to reach wide, tie-heavy clusters): a small
// integer, a fraction, zero or a negative value.
func FuzzProportional(f *testing.F) {
	f.Add([]byte{0, 100, 0, 10, 20, 30, 40})
	f.Add([]byte{0, 3, 7, 128, 128, 128})
	f.Add([]byte{16, 0, 63, 1, 2, 0, 255, 90, 7, 7, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		total := int(data[0])<<8 | int(data[1])
		rep := 1 + int(data[2])%64
		var weights []float64
		for r := 0; r < rep && len(weights) < 1100; r++ {
			for _, c := range data[3:] {
				var w float64
				switch {
				case c < 64:
					w = float64(c % 8)
				case c < 192:
					w = float64(c) / 191
				case c < 224:
					w = 0
				default:
					w = -float64(c - 223)
				}
				weights = append(weights, w)
			}
		}
		if len(weights) > 1100 {
			weights = weights[:1100]
		}
		positive := false
		for _, w := range weights {
			positive = positive || w > 0
		}
		if !positive {
			return
		}
		want := oracleProportional(total, weights)
		if got := Proportional(total, weights); !got.Equal(want) {
			t.Fatalf("Proportional(%d, %v) = %v, reference = %v", total, weights, got, want)
		}
		dst := make(Distribution, 0, len(weights))
		if got := ProportionalInto(dst, total, weights); !got.Equal(want) {
			t.Fatalf("ProportionalInto(%d, %v) = %v, reference = %v", total, weights, got, want)
		}
		blk := Block(total, len(weights))
		tt := float64(data[2]) / 255
		if got, ref := LerpInto(dst, want, blk, tt), oracleLerp(want, blk, tt); !got.Equal(ref) {
			t.Fatalf("LerpInto(%v, %v, %v) = %v, reference = %v", want, blk, tt, got, ref)
		}
	})
}

var sinkDist Distribution

// BenchmarkProportional times Proportional at the paper's 8 nodes, the
// top of the stack tier, and the wide-cluster width, with a few elements
// per node and randomDist-shaped weights.
func BenchmarkProportional(b *testing.B) {
	for _, n := range []int{8, 64, 1024} {
		nz := vclock.NewNoise(1, 0)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.05 + nz.Float64()
		}
		b.Run("nodes="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkDist = Proportional(4*n, weights)
			}
		})
	}
}
