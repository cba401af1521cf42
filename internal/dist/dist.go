// Package dist implements 1-D GEN_BLOCK data distributions (§3.1): the
// global element range is divided into variable-sized contiguous blocks,
// one per node, under the owner-computes and Local Placement rules.
//
// It provides the four anchor generators of Figure 8 — Block (Blk),
// Balanced (Bal), In-Core (I-C) and In-Core-and-Balanced (I-C/Bal) — and
// the spectrum walk the paper sweeps: Blk → I-C → I-C/Bal → Bal → Blk.
package dist

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mheta/internal/cluster"
)

// Distribution assigns a contiguous block of elements to each node;
// entry i is node i's block size. Entries may be zero (a node may own
// nothing), never negative.
type Distribution []int //mheta:units elems

// Total returns the number of elements distributed.
func (d Distribution) Total() int {
	t := 0
	for _, b := range d {
		t += b
	}
	return t
}

// Start returns the first global element index owned by node i.
func (d Distribution) Start(i int) int {
	s := 0
	for j := 0; j < i; j++ {
		s += d[j]
	}
	return s
}

// Owner returns the node owning global element e, or -1 if out of range.
func (d Distribution) Owner(e int) int {
	if e < 0 {
		return -1
	}
	s := 0
	for i, b := range d {
		s += b
		if e < s {
			return i
		}
	}
	return -1
}

// Clone returns an independent copy.
func (d Distribution) Clone() Distribution {
	return append(Distribution(nil), d...)
}

// Equal reports element-wise equality.
func (d Distribution) Equal(o Distribution) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// Validate checks the distribution covers exactly total elements with no
// negative blocks.
func (d Distribution) Validate(total int) error {
	sum := 0
	for i, b := range d {
		if b < 0 {
			return fmt.Errorf("dist: node %d has negative block %d", i, b)
		}
		sum += b
	}
	if sum != total {
		return fmt.Errorf("dist: blocks sum to %d, want %d", sum, total)
	}
	return nil
}

// String renders the distribution compactly, e.g. "[128 128 64 ...]".
func (d Distribution) String() string { return fmt.Sprint([]int(d)) }

// Hash returns a 64-bit hash of the distribution, suitable as a memo key
// in search loops (it replaces the allocating String()-keyed memo). The
// hash chains one splitmix64 round per block, so nearby distributions —
// the common case along a spectrum leg — scatter across the full 64-bit
// range. It allocates nothing.
//
// Collisions are possible in principle; a search evaluates at most a few
// thousand distinct distributions, so the expected collision probability
// is below 1e-12 (birthday bound on 64 bits).
func (d Distribution) Hash() uint64 {
	h := 0x9E3779B97F4A7C15 ^ uint64(len(d))
	for _, b := range d {
		z := uint64(b) + 0x9E3779B97F4A7C15 + h
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		h = z ^ (z >> 31)
	}
	return h
}

// Block returns the Blk distribution: elements divided evenly across
// nodes "without regard for I/O cost or load balance", remainder spread
// one extra element to the first nodes.
func Block(total, nodes int) Distribution {
	if nodes <= 0 {
		panic("dist: Block with no nodes")
	}
	d := make(Distribution, nodes)
	base, rem := total/nodes, total%nodes
	for i := range d {
		d[i] = base
		if i < rem {
			d[i]++
		}
	}
	return d
}

// Balanced returns the Bal distribution: blocks proportional to relative
// CPU power, ignoring I/O costs.
func Balanced(total int, spec cluster.Spec) Distribution {
	weights := make([]float64, spec.N())
	for i, n := range spec.Nodes {
		weights[i] = n.CPUPower
	}
	return Proportional(total, weights)
}

// InCore returns the I-C distribution: blocks proportional to memory
// capacity so as many nodes as possible hold their local arrays in core,
// ignoring load balance. bytesPerElem is the per-element footprint summed
// over all distributed variables, so capacity/bytesPerElem is the largest
// in-core block a node can hold.
func InCore(total int, spec cluster.Spec, bytesPerElem int64) Distribution {
	if bytesPerElem <= 0 {
		panic("dist: InCore with non-positive bytesPerElem")
	}
	caps := make([]int, spec.N())
	capTotal := 0
	for i, n := range spec.Nodes {
		caps[i] = int(n.MemoryBytes / bytesPerElem)
		capTotal += caps[i]
	}
	if capTotal >= total {
		// Everything fits: fill nodes proportionally to capacity, capped
		// at capacity, so every node stays in core.
		weights := make([]float64, spec.N())
		for i := range weights {
			weights[i] = float64(caps[i])
		}
		d := Proportional(total, weights)
		// Repair any over-capacity rounding by shifting overflow to nodes
		// with headroom.
		d = capRepair(d, caps)
		return d
	}
	// Aggregate memory cannot hold the dataset: fill each node to
	// capacity and spread the out-of-core remainder proportionally to
	// capacity (bigger memories take bigger OCLAs).
	d := make(Distribution, spec.N())
	rem := total - capTotal
	for i := range d {
		d[i] = caps[i]
	}
	extra := Proportional(rem, intsToFloats(caps))
	for i := range d {
		d[i] += extra[i]
	}
	return d
}

// InCoreBalanced returns the I-C/Bal distribution: "first maximizes the
// number of nodes that have exclusively in-core datasets and then balances
// the load as much as possible". We fill in-core capacity in decreasing
// CPU-power order (fast nodes get their full in-core share first), then
// distribute any remainder proportionally to power.
func InCoreBalanced(total int, spec cluster.Spec, bytesPerElem int64) Distribution {
	if bytesPerElem <= 0 {
		panic("dist: InCoreBalanced with non-positive bytesPerElem")
	}
	n := spec.N()
	caps := make([]int, n)
	capTotal := 0
	for i, node := range spec.Nodes {
		caps[i] = int(node.MemoryBytes / bytesPerElem)
		capTotal += caps[i]
	}
	if capTotal >= total {
		// In-core feasible: balance by power subject to per-node caps.
		weights := make([]float64, n)
		for i, node := range spec.Nodes {
			weights[i] = node.CPUPower
		}
		d := Proportional(total, weights)
		return capRepair(d, caps)
	}
	// Not feasible in core: fill everyone to capacity, then put the
	// out-of-core remainder on the most powerful nodes (they absorb the
	// extra passes fastest), proportionally to power.
	d := make(Distribution, n)
	for i := range d {
		d[i] = caps[i]
	}
	weights := make([]float64, n)
	for i, node := range spec.Nodes {
		weights[i] = node.CPUPower
	}
	extra := Proportional(total-capTotal, weights)
	for i := range d {
		d[i] += extra[i]
	}
	return d
}

// Proportional splits total into len(weights) blocks proportional to the
// weights using largest-remainder rounding, so the result sums exactly to
// total. Zero or negative weights receive zero elements (unless all
// weights are non-positive, which panics). A NaN or infinite weight, or
// finite weights whose sum overflows, also panics.
func Proportional(total int, weights []float64) Distribution {
	return ProportionalInto(nil, total, weights)
}

// ProportionalInto is Proportional writing into dst's backing array when
// its capacity suffices (dst may be nil). With capacity available it
// allocates nothing up to 64 weights and exactly one rounding scratch
// beyond, which is what lets the search inner loops generate candidate
// distributions at full speed.
func ProportionalInto(dst Distribution, total int, weights []float64) Distribution {
	n := len(weights)
	if n == 0 {
		panic("dist: Proportional with no weights")
	}
	var wsum float64
	for _, w := range weights {
		if w-w != 0 { // NaN or ±Inf
			panic("dist: Proportional with a non-finite weight")
		}
		if w > 0 {
			wsum += w
		}
	}
	if wsum <= 0 {
		panic("dist: Proportional with no positive weights")
	}
	if math.IsInf(wsum, 1) {
		panic("dist: Proportional weights sum overflows")
	}
	return largestRemainder(dst, total, wsum, weights)
}

// largestRemainder fills dst (resized to len(ws), reusing capacity) with
// the largest-remainder rounding of total split proportionally to ws[i],
// normalised by wsum (the precomputed sum of positive weights). ws is not
// modified. The fractional parts and their selection copy share one
// scratch of 2·len(ws) floats, on the stack in tiers (16 then 64 nodes)
// so the common small-cluster case zeroes only 256 bytes of frame, and
// one heap allocation beyond 64 nodes.
func largestRemainder(dst Distribution, total int, wsum float64, ws []float64) Distribution {
	n := len(ws)
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
	return largestRemainderInto(dst, total, wsum, ws, scratch[:n], scratch[n:])
}

// largestRemainderInto is largestRemainder with caller-provided scratch:
// fracs receives the fractional parts and sel a copy of them for the
// selection to reorder (both len(ws)). fracs may alias ws exactly — each
// slot is read as a weight before it is rewritten as a fraction — which
// is how LerpInto rounds inside its own weight buffer; sel must not alias
// either.
//
// The k = total − Σfloor leftover elements go one each to the k largest
// fractional parts, ties broken toward lower index; nodes with w ≤ 0 stay
// last-resort candidates with fraction 0. The k-th largest fraction thr
// is found by selection on sel, then every node with frac > thr gets +1
// and the lowest-index nodes with frac == thr take the rest: exactly the
// set that handing out one element per first-maximum scan picks (the
// quadratic reference the tests keep). If k ≥ n every node gets +1 and
// node 0 the remaining k − n, which is where that scan lands once every
// node has been picked. Zero allocations when dst capacity suffices.
func largestRemainderInto(dst Distribution, total int, wsum float64, ws, fracs, sel []float64) Distribution {
	n := len(ws)
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make(Distribution, n)
	}
	assigned := 0
	for i := 0; i < n; i++ {
		w := ws[i]
		if w <= 0 {
			dst[i] = 0
			fracs[i], sel[i] = 0, 0 // still a (last-resort) candidate
			continue
		}
		exact := float64(total) * w / wsum
		floor := int(exact)
		dst[i] = floor
		fracs[i] = exact - float64(floor)
		sel[i] = fracs[i]
		assigned += floor
	}
	k := total - assigned
	switch {
	case k <= 0:
		return dst
	case k >= n:
		for i := range dst {
			dst[i]++
		}
		dst[0] += k - n
		return dst
	}
	thr, above := selectRank(sel, n-k, 2*bits.Len(uint(n)))
	ties := k - above
	for i, f := range fracs {
		if f > thr {
			dst[i]++
		} else if f == thr && ties > 0 {
			dst[i]++
			ties--
		}
	}
	return dst
}

// selectRank reorders s (no NaNs) so that the element of ascending rank
// r (0-based) sits at s[r], and returns it with the number of elements
// of s strictly greater than it. It is a three-way-partition quickselect
// with a median-of-three pivot, so tie-heavy inputs stay linear; after
// limit partitions without converging it sorts the remaining range, so
// a limit of O(log n) bounds the worst case at O(n log n).
func selectRank(s []float64, r, limit int) (v float64, above int) {
	lo, hi := 0, len(s)
	for ; hi-lo > 1; limit-- {
		if limit == 0 {
			slices.Sort(s[lo:hi])
			break
		}
		p := median3(s[lo], s[lo+(hi-lo)/2], s[hi-1])
		// Invariant: s[lo:lt] < p, s[lt:i] == p, s[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := s[i]; {
			case x < p:
				s[i], s[lt] = s[lt], x
				lt++
				i++
			case x > p:
				gt--
				s[i], s[gt] = s[gt], x
			default:
				i++
			}
		}
		switch {
		case r < lt:
			hi = lt
		case r >= gt:
			lo = gt
		default:
			// Everything at or beyond gt exceeds p: the partitions above
			// hi were split off as strictly greater than this range.
			return p, len(s) - gt
		}
	}
	v = s[r]
	j := r + 1
	for j < hi && s[j] == v {
		j++
	}
	return v, len(s) - j
}

// median3 returns the median of a, b and c.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// capRepair shifts elements from over-capacity nodes to nodes with
// headroom, preserving the total; d is modified in place and returned
// (both callers pass a freshly built distribution they own). If total
// capacity is insufficient the overflow stays where it is (the caller
// decided that is acceptable).
func capRepair(d Distribution, caps []int) Distribution {
	for {
		over, under := -1, -1
		for i := range d {
			if d[i] > caps[i] {
				over = i
			}
			if d[i] < caps[i] {
				under = i
			}
		}
		if over == -1 || under == -1 {
			return d
		}
		excess := d[over] - caps[over]
		room := caps[under] - d[under]
		move := excess
		if room < move {
			move = room
		}
		d[over] -= move
		d[under] += move
	}
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
