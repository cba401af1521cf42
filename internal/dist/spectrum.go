package dist

import (
	"mheta/internal/cluster"
)

// This file implements the Figure 8 spectrum: "We start testing the
// performance of MHETA with Blk and progressively generate distributions
// that move through I-C, I-C/Bal, Bal, and back to Blk." When relative
// CPU power is uniform the walk simplifies to Blk↔I-C, and when no node
// is memory constrained to Blk↔Bal (§5.1).

// SpectrumPoint is one distribution along the walk with its position
// label for plotting.
type SpectrumPoint struct {
	Label string // anchor name at anchors ("Blk", "I-C", ...), else ""
	// Leg is the index of the spectrum leg this point lies on and T its
	// position within the leg in [0,1].
	Leg  int
	T    float64
	Dist Distribution
}

// Anchors returns the anchor distributions for the spec in walk order.
// The full walk is Blk, I-C, I-C/Bal, Bal, Blk; degenerate cases collapse
// as the paper describes.
func Anchors(total int, spec cluster.Spec, bytesPerElem int64) []SpectrumPoint {
	blk := Block(total, spec.N())
	cpu := spec.CPUVaried()
	mem := spec.MemoryConstrained()
	switch {
	case cpu && mem:
		return []SpectrumPoint{
			{Label: "Blk", Dist: blk},
			{Label: "I-C", Dist: InCore(total, spec, bytesPerElem)},
			{Label: "I-C/Bal", Dist: InCoreBalanced(total, spec, bytesPerElem)},
			{Label: "Bal", Dist: Balanced(total, spec)},
			{Label: "Blk", Dist: blk},
		}
	case mem:
		// Uniform CPU power: Blk already balances the load; vary only
		// between Blk and I-C (and back, to keep a symmetric sweep).
		return []SpectrumPoint{
			{Label: "Blk", Dist: blk},
			{Label: "I-C", Dist: InCore(total, spec, bytesPerElem)},
			{Label: "Blk", Dist: blk},
		}
	case cpu:
		// No memory restrictions: I/O is not a concern; vary only between
		// Blk and Bal.
		return []SpectrumPoint{
			{Label: "Blk", Dist: blk},
			{Label: "Bal", Dist: Balanced(total, spec)},
			{Label: "Blk", Dist: blk},
		}
	default:
		// Fully homogeneous: every anchor coincides with Blk.
		return []SpectrumPoint{
			{Label: "Blk", Dist: blk},
			{Label: "Blk", Dist: blk},
		}
	}
}

// FullAnchors returns the complete five-anchor walk Blk, I-C, I-C/Bal,
// Bal, Blk regardless of the spec's degeneracies (coinciding anchors
// simply repeat). Figure 9 aggregates percent differences across many
// architectures at fixed x-positions, which needs every architecture to
// contribute at every position.
func FullAnchors(total int, spec cluster.Spec, bytesPerElem int64) []SpectrumPoint {
	return []SpectrumPoint{
		{Label: "Blk", Dist: Block(total, spec.N())},
		{Label: "I-C", Dist: InCore(total, spec, bytesPerElem)},
		{Label: "I-C/Bal", Dist: InCoreBalanced(total, spec, bytesPerElem)},
		{Label: "Bal", Dist: Balanced(total, spec)},
		{Label: "Blk", Dist: Block(total, spec.N())},
	}
}

// Spectrum walks the spec's (possibly collapsed) anchors, inserting
// stepsPerLeg-1 interpolated distributions between consecutive anchors.
// Interpolation is per-node linear with largest-remainder repair, so
// every intermediate point is a valid GEN_BLOCK distribution summing to
// total.
func Spectrum(total int, spec cluster.Spec, bytesPerElem int64, stepsPerLeg int) []SpectrumPoint {
	return walk(Anchors(total, spec, bytesPerElem), stepsPerLeg)
}

// SpectrumFull walks the full five-anchor axis (see FullAnchors).
func SpectrumFull(total int, spec cluster.Spec, bytesPerElem int64, stepsPerLeg int) []SpectrumPoint {
	return walk(FullAnchors(total, spec, bytesPerElem), stepsPerLeg)
}

func walk(anchors []SpectrumPoint, stepsPerLeg int) []SpectrumPoint {
	if stepsPerLeg < 1 {
		stepsPerLeg = 1
	}
	var out []SpectrumPoint
	for leg := 0; leg+1 < len(anchors); leg++ {
		a, b := anchors[leg], anchors[leg+1]
		for s := 0; s < stepsPerLeg; s++ {
			t := float64(s) / float64(stepsPerLeg)
			p := SpectrumPoint{Leg: leg, T: t, Dist: Lerp(a.Dist, b.Dist, t)}
			if s == 0 {
				p.Label = a.Label
			}
			out = append(out, p)
		}
	}
	last := anchors[len(anchors)-1]
	out = append(out, SpectrumPoint{Label: last.Label, Leg: len(anchors) - 2, T: 1, Dist: last.Dist.Clone()})
	return out
}

// Lerp interpolates between two distributions of equal length and total,
// producing a valid distribution (non-negative, same total) via
// largest-remainder rounding.
func Lerp(a, b Distribution, t float64) Distribution {
	return LerpInto(nil, a, b, t)
}

// LerpInto is Lerp writing into dst's backing array when its capacity
// suffices (dst may be nil). The interpolated weights are computed once
// into a scratch that also holds the rounding's selection copy, on the
// stack up to 64 nodes and one heap allocation beyond, so the reuse path
// of the paper-scale clusters allocates nothing — this is what the GBS
// inner loop calls per probe.
func LerpInto(dst Distribution, a, b Distribution, t float64) Distribution {
	if len(a) != len(b) {
		panic("dist: Lerp length mismatch")
	}
	if t <= 0 {
		return copyInto(dst, a)
	}
	if t >= 1 {
		return copyInto(dst, b)
	}
	// A node with zero in both anchors has weight 0 and correctly receives
	// nothing; no epsilon needed. If every weight is zero (total==0),
	// return a copy of a. The scratch is tiered like largestRemainder's;
	// its weight half doubles as the rounding's fraction buffer
	// (largestRemainderInto allows exact aliasing).
	n := len(a)
	var scratch []float64
	if n <= 16 {
		var small [32]float64
		scratch = small[:2*n]
	} else if n <= 64 {
		var big [128]float64
		scratch = big[:2*n]
	} else {
		scratch = make([]float64, 2*n)
	}
	ws := scratch[:n]
	var wsum float64
	for i := range a {
		w := (1-t)*float64(a[i]) + t*float64(b[i])
		ws[i] = w
		if w > 0 {
			wsum += w
		}
	}
	if wsum <= 0 {
		return copyInto(dst, a)
	}
	return largestRemainderInto(dst, a.Total(), wsum, ws, ws, scratch[n:])
}

// copyInto copies src into dst, reusing dst's capacity when possible.
func copyInto(dst, src Distribution) Distribution {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
	} else {
		dst = make(Distribution, len(src))
	}
	copy(dst, src)
	return dst
}
