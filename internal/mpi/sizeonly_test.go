package mpi

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Equivalence of the size-only and payload planes: a message's or a
// collective's cost depends only on its size, so sending n bytes with
// SendSize, or running a collective with nil Vals and Len elements, must
// give bit-identical clocks and the same profiler stream as carrying
// those bytes.

// callRec is what the equivalence tests compare of one profiler hook
// call, with virtual times as bit patterns.
type callRec struct {
	Post             bool
	Kind             CallKind
	Peer, Bytes, Tag int
	Start, End, Wait uint64
}

// streamProfiler records every hook call in order.
type streamProfiler struct{ calls []callRec }

func (p *streamProfiler) record(ci *CallInfo, post bool) {
	p.calls = append(p.calls, callRec{
		Post: post, Kind: ci.Kind, Peer: ci.Peer, Bytes: ci.Bytes, Tag: ci.Tag,
		Start: math.Float64bits(float64(ci.Start)),
		End:   math.Float64bits(float64(ci.End)),
		Wait:  math.Float64bits(float64(ci.Wait)),
	})
}

func (p *streamProfiler) Pre(ci *CallInfo)  { p.record(ci, false) }
func (p *streamProfiler) Post(ci *CallInfo) { p.record(ci, true) }

// planeRun is one noisy run's observable timing: every rank's final
// clock bits and profiler stream.
type planeRun struct {
	clocks  []uint64
	streams [][]callRec
}

// runPlane runs one program per rank on a noisy n-rank world with a
// recording profiler on every rank.
func runPlane(t *testing.T, n int, progs func(p int) prog) planeRun {
	t.Helper()
	w := NewWorld(testSpec(n), 11, 0.02)
	profs := make([]*streamProfiler, n)
	for p := range profs {
		profs[p] = &streamProfiler{}
		w.Rank(p).SetProfiler(profs[p])
	}
	runProgs(t, w, perRank(n, progs)...)
	run := planeRun{clocks: make([]uint64, n), streams: make([][]callRec, n)}
	for p := 0; p < n; p++ {
		run.clocks[p] = math.Float64bits(float64(w.Rank(p).Now()))
		run.streams[p] = profs[p].calls
	}
	return run
}

// samePlanes fails the test unless the payload and size-only runs are
// indistinguishable in time.
func samePlanes(t *testing.T, name string, payload, sizeOnly planeRun) {
	t.Helper()
	if !reflect.DeepEqual(payload.clocks, sizeOnly.clocks) {
		t.Fatalf("%s: clocks differ: payload %v, size-only %v", name, payload.clocks, sizeOnly.clocks)
	}
	for p := range payload.streams {
		if !reflect.DeepEqual(payload.streams[p], sizeOnly.streams[p]) {
			t.Fatalf("%s: rank %d profiler streams differ:\npayload   %+v\nsize-only %+v", name, p, payload.streams[p], sizeOnly.streams[p])
		}
	}
}

func TestSendSizeMatchesSend(t *testing.T) {
	for _, size := range []int{0, 1, 100, 4096, 1 << 16} {
		var got [2][]byte
		var runs [2]planeRun
		for i, sizeOnly := range []bool{false, true} {
			sendData := func(tag, n int) func(*Rank) bool {
				if sizeOnly {
					return do(func(r *Rank) { r.SendSize(1, tag, n) })
				}
				return send(1, tag, make([]byte, n))
			}
			// Rank 0 parks on rank 1's token before it sends, and rank
			// 1 parks on the data, so both receive paths are covered.
			runs[i] = runPlane(t, 2, func(p int) prog {
				if p == 0 {
					return prog{recv(1, 1, nil), compute(3, 0.001), sendData(2, size), sendData(3, size/2)}
				}
				return prog{compute(1, 0.001), send(0, 1, make([]byte, 8)), recv(0, 2, &got[i]), recv(0, 3, nil)}
			})
		}
		samePlanes(t, fmt.Sprintf("%d bytes", size), runs[0], runs[1])
		if got[1] != nil {
			t.Fatalf("%d bytes: size-only receive returned %d bytes of data", size, len(got[1]))
		}
		if len(got[0]) != size {
			t.Fatalf("%d bytes: payload receive returned %d bytes", size, len(got[0]))
		}
	}
}

func TestSendSizeRejectsNegative(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SendSize of -1 bytes did not panic")
		}
	}()
	w.Rank(0).SendSize(1, 1, -1)
}

func TestSizeOnlyCollectivesMatchPayload(t *testing.T) {
	const k = 5 // elements per collective
	vals := func(p int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = float64(p*k + i)
		}
		return v
	}
	type collective struct {
		name  string
		roots func(n int) int // roots 0..roots(n)-1 are exercised
		// step returns rank p's state machine step and its result.
		step func(p, root int, sizeOnly bool) (func(*Rank) bool, func() []float64)
	}
	all := func(n int) int { return n }
	one := func(int) int { return 1 }
	kinds := []collective{
		{"Reduce", all, func(p, root int, sizeOnly bool) (func(*Rank) bool, func() []float64) {
			sm := &ReduceSM{Root: root, Tag: 4, Op: OpSum, Len: k}
			if !sizeOnly {
				sm.Vals = vals(p)
			}
			return sm.Step, sm.Result
		}},
		{"Bcast", all, func(p, root int, sizeOnly bool) (func(*Rank) bool, func() []float64) {
			sm := &BcastSM{Root: root, Tag: 4, Len: k}
			if !sizeOnly {
				sm.Vals = vals(p)
			}
			return sm.Step, sm.Result
		}},
		{"Allreduce", one, func(p, _ int, sizeOnly bool) (func(*Rank) bool, func() []float64) {
			sm := &AllreduceSM{Tag: 4, Op: OpSum, Len: k}
			if !sizeOnly {
				sm.Vals = vals(p)
			}
			return sm.Step, sm.Result
		}},
		{"Barrier", one, func(int, int, bool) (func(*Rank) bool, func() []float64) {
			return (&BarrierSM{Tag: 4}).Step, func() []float64 { return nil }
		}},
	}
	for _, c := range kinds {
		for n := 1; n <= maxTreeRanks; n++ {
			for root := 0; root < c.roots(n); root++ {
				var runs [2]planeRun
				for i, sizeOnly := range []bool{false, true} {
					results := make([]func() []float64, n)
					runs[i] = runPlane(t, n, func(p int) prog {
						step, res := c.step(p, root, sizeOnly)
						results[p] = res
						// Staggered entry makes ranks park at every level.
						return prog{compute(float64((p*7)%5), 0.001), step, compute(1, 0.001)}
					})
					for p, res := range results {
						if sizeOnly && res() != nil {
							t.Fatalf("%s n=%d root=%d: size-only rank %d has result %v", c.name, n, root, p, res())
						}
					}
				}
				samePlanes(t, fmt.Sprintf("%s n=%d root=%d", c.name, n, root), runs[0], runs[1])
			}
		}
	}
}
