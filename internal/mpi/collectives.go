package mpi

import (
	"encoding/binary"
	"math"

	"mheta/internal/vclock"
)

// Collectives are composed from point-to-point operations over binomial
// trees, the same construction LAM-MPI used for small communicators. The
// MHETA core reproduces the identical tree arithmetically (see
// core.reduceTree), so predicted and actual reduction costs agree up to
// noise — our stand-in for the dissertation's reduction equations, which
// the paper omits for space.
//
// Each collective is a resumable state machine: Step runs the calling
// rank's part of the tree until it completes (true) or parks in a
// receive (false), and is called again with the same rank when World.Run
// resumes it. Every rank in the world must run the same collective with
// the same tag (and root, op and length, where they apply).

// ReduceOp combines two float64 values.
type ReduceOp func(a, b float64) float64

// OpSum adds; OpMax takes the maximum; OpMin the minimum.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 { return math.Max(a, b) }
	OpMin ReduceOp = func(a, b float64) float64 { return math.Min(a, b) }
)

func encodeF64s(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func decodeF64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// elems is a collective's element count: len(vals) when it carries
// values, n when it is size-only (vals nil).
func elems(vals []float64, n int) int {
	if vals != nil {
		return len(vals)
	}
	return n
}

// ReduceSM combines each rank's Vals element-wise with Op onto the Root
// rank over a binomial tree. With Vals nil it is size-only: it sends and
// receives Len-element messages with no values in them, at exactly the
// virtual-time and profiler cost of a Vals of Len elements. Step returns
// false when the rank parked mid-tree; retry after World.Run resumes it.
type ReduceSM struct {
	Root, Tag int
	Op        ReduceOp
	Vals      []float64
	// Len is the element count of a size-only reduction; it is ignored
	// when Vals is set.
	Len int

	started bool
	ci      CallInfo
	acc     []float64
	mask    int
	recv    RecvOp
}

// Step advances the reduction until it completes (true) or parks
// (false).
func (s *ReduceSM) Step(r *Rank) bool {
	n := r.Size()
	if !s.started {
		s.ci = CallInfo{Kind: CallReduce, Peer: s.Root, Bytes: 8 * elems(s.Vals, s.Len), Tag: s.Tag}
		r.pre(&s.ci)
		if s.Vals != nil {
			s.acc = append([]float64(nil), s.Vals...)
		}
		s.mask = 1
		s.started = true
	}
	rel := (r.rank - s.Root + n) % n
	itag := reservedTagBase + s.Tag
	for ; s.mask < n; s.mask <<= 1 {
		if rel&s.mask != 0 {
			parent := ((rel - s.mask) + s.Root) % n
			if s.Vals != nil {
				r.send(parent, itag, s.ci.Bytes, encodeF64s(s.acc))
			} else {
				r.SendSize(parent, itag, s.ci.Bytes)
			}
			s.acc = nil
			break
		}
		if rel+s.mask < n {
			child := (rel + s.mask + s.Root) % n
			if !s.recv.started {
				s.recv = RecvOp{Src: child, Tag: itag}
			}
			data, ok := r.TryRecv(&s.recv)
			if !ok {
				return false
			}
			s.recv = RecvOp{}
			if s.Vals != nil {
				got := decodeF64s(data)
				for i := range s.acc {
					s.acc[i] = s.Op(s.acc[i], got[i])
				}
			}
		}
	}
	r.post(&s.ci)
	return true
}

// Result returns the combined vector on the root, nil elsewhere and in a
// size-only reduction. Valid once Step returned true.
func (s *ReduceSM) Result() []float64 { return s.acc }

// BcastSM distributes the Root's Vals to every rank over a binomial tree
// (one park point: the receive from the parent; forwarding to children
// never blocks). Every rank passes Vals of the same length, and only the
// root's values are sent; or every rank passes nil Vals and the same
// Len, and the broadcast is size-only, as in ReduceSM.
type BcastSM struct {
	Root, Tag int
	Vals      []float64
	// Len is the element count of a size-only broadcast; it is ignored
	// when Vals is set.
	Len int

	started    bool
	ci         CallInfo
	mask       int
	forwarding bool
	recv       RecvOp
	vals       []float64
}

// Step advances the broadcast until it completes (true) or parks
// (false).
func (s *BcastSM) Step(r *Rank) bool {
	n := r.Size()
	rel := (r.rank - s.Root + n) % n
	itag := reservedTagBase + (1 << 20) + s.Tag
	if !s.started {
		s.ci = CallInfo{Kind: CallBcast, Peer: s.Root, Bytes: 8 * elems(s.Vals, s.Len), Tag: s.Tag}
		r.pre(&s.ci)
		s.vals = s.Vals
		s.mask = 1
		s.started = true
	}
	if !s.forwarding {
		for s.mask < n {
			if rel&s.mask != 0 {
				parent := ((rel &^ s.mask) + s.Root) % n
				if !s.recv.started {
					s.recv = RecvOp{Src: parent, Tag: itag}
				}
				data, ok := r.TryRecv(&s.recv)
				if !ok {
					return false
				}
				s.recv = RecvOp{}
				if s.Vals != nil {
					s.vals = decodeF64s(data)
				}
				break
			}
			s.mask <<= 1
		}
		s.forwarding = true
		s.mask >>= 1
	}
	for ; s.mask >= 1; s.mask >>= 1 {
		if rel+s.mask < n && rel&(s.mask-1) == 0 && rel&s.mask == 0 {
			child := (rel + s.mask + s.Root) % n
			if s.Vals != nil {
				r.send(child, itag, 8*len(s.vals), encodeF64s(s.vals))
			} else {
				r.SendSize(child, itag, s.ci.Bytes)
			}
		}
	}
	r.post(&s.ci)
	return true
}

// Result returns the broadcast vector, nil in a size-only broadcast.
// Valid once Step returned true.
func (s *BcastSM) Result() []float64 { return s.vals }

// AllreduceSM is a ReduceSM to rank 0 followed by a BcastSM from rank 0,
// the structure the MHETA reduction model mirrors. With Vals nil it is
// size-only, moving Len-element messages, as in ReduceSM.
type AllreduceSM struct {
	Tag  int
	Op   ReduceOp
	Vals []float64
	// Len is the element count of a size-only allreduce; it is ignored
	// when Vals is set.
	Len int

	reduce ReduceSM
	bcast  BcastSM
}

// Step advances the allreduce until it completes (true) or parks
// (false).
func (s *AllreduceSM) Step(r *Rank) bool {
	if !s.bcast.started {
		if !s.reduce.started {
			s.reduce = ReduceSM{Root: 0, Tag: s.Tag, Op: s.Op, Vals: s.Vals, Len: s.Len}
		}
		if !s.reduce.Step(r) {
			return false
		}
		s.bcast = BcastSM{Root: 0, Tag: s.Tag, Len: s.Len}
		if s.Vals != nil {
			s.bcast.Vals = s.reduce.Result()
			if r.rank != 0 {
				s.bcast.Vals = make([]float64, len(s.Vals))
			}
		}
	}
	return s.bcast.Step(r)
}

// Result returns the combined vector, identical on every rank, or nil in
// a size-only allreduce. Valid once Step returned true.
func (s *AllreduceSM) Result() []float64 { return s.bcast.Result() }

// BarrierSM synchronises all ranks: an empty size-only AllreduceSM under
// the Barrier CallInfo.
type BarrierSM struct {
	Tag int

	started bool
	ci      CallInfo
	all     AllreduceSM
}

// Step advances the barrier until it completes (true) or parks (false).
func (s *BarrierSM) Step(r *Rank) bool {
	if !s.started {
		s.ci = CallInfo{Kind: CallBarrier, Tag: s.Tag}
		r.pre(&s.ci)
		s.all = AllreduceSM{Tag: s.Tag + (1 << 21), Op: OpSum}
		s.started = true
	}
	if !s.all.Step(r) {
		return false
	}
	r.post(&s.ci)
	return true
}

// WaitUntil advances the rank's clock to at least t, returning the waited
// span. Harness helper for aligning phase starts.
func (r *Rank) WaitUntil(t vclock.Time) vclock.Duration {
	return r.clk.WaitUntil(t)
}
