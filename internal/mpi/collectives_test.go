package mpi

import (
	"fmt"
	"math"
	"testing"
)

// Every collective state machine runs at n = 1..9 ranks (every tree
// shape up to the first depth-4 tree, which is where a park can happen at
// each level) and, where the collective has one, from every root.
const maxTreeRanks = 9

func TestReduceSumToRoot(t *testing.T) {
	for n := 1; n <= maxTreeRanks; n++ {
		for root := 0; root < n; root++ {
			w := NewWorld(testSpec(n), 1, 0)
			sms := make([]*ReduceSM, n)
			runProgs(t, w, perRank(n, func(p int) prog {
				sms[p] = &ReduceSM{Root: root, Tag: 3, Op: OpSum, Vals: []float64{float64(p + 1), 1}}
				return prog{sms[p].Step}
			})...)
			want := float64(n*(n+1)) / 2
			if got := sms[root].Result(); got[0] != want || got[1] != float64(n) {
				t.Fatalf("n=%d root=%d: root got %v, want [%v %v]", n, root, got, want, n)
			}
			for p := 0; p < n; p++ {
				if p != root && sms[p].Result() != nil {
					t.Fatalf("n=%d root=%d: non-root rank %d got %v", n, root, p, sms[p].Result())
				}
			}
		}
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	const n = 6
	w := NewWorld(testSpec(n), 1, 0)
	sms := make([]*ReduceSM, n)
	runProgs(t, w, perRank(n, func(p int) prog {
		sms[p] = &ReduceSM{Root: 3, Tag: 4, Op: OpSum, Vals: []float64{1}}
		return prog{sms[p].Step}
	})...)
	if got := sms[3].Result(); got == nil || got[0] != n {
		t.Fatalf("root 3 got %v", got)
	}
}

func TestReduceOps(t *testing.T) {
	// Two reductions back to back on each rank, told apart by tag.
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	var maxSM, minSM *ReduceSM
	runProgs(t, w, perRank(n, func(p int) prog {
		v := []float64{float64(p)}
		hi := &ReduceSM{Root: 0, Tag: 1, Op: OpMax, Vals: v}
		lo := &ReduceSM{Root: 0, Tag: 2, Op: OpMin, Vals: v}
		if p == 0 {
			maxSM, minSM = hi, lo
		}
		return prog{hi.Step, lo.Step}
	})...)
	if maxSM.Result()[0] != 3 || minSM.Result()[0] != 0 {
		t.Fatalf("max %v min %v", maxSM.Result(), minSM.Result())
	}
}

func TestBcast(t *testing.T) {
	for n := 1; n <= maxTreeRanks; n++ {
		for root := 0; root < n; root++ {
			w := NewWorld(testSpec(n), 1, 0)
			sms := make([]*BcastSM, n)
			runProgs(t, w, perRank(n, func(p int) prog {
				vals := make([]float64, 2)
				if p == root {
					vals = []float64{3.25, -1}
				}
				sms[p] = &BcastSM{Root: root, Tag: 5, Vals: vals}
				return prog{sms[p].Step}
			})...)
			for p := 0; p < n; p++ {
				if got := sms[p].Result(); got[0] != 3.25 || got[1] != -1 {
					t.Fatalf("n=%d root=%d rank %d got %v", n, root, p, got)
				}
			}
		}
	}
}

func TestAllreduceEveryoneGetsSum(t *testing.T) {
	for n := 1; n <= maxTreeRanks; n++ {
		w := NewWorld(testSpec(n), 1, 0)
		sms := make([]*AllreduceSM, n)
		runProgs(t, w, perRank(n, func(p int) prog {
			sms[p] = &AllreduceSM{Tag: 7, Op: OpSum, Vals: []float64{float64(p + 1)}}
			return prog{sms[p].Step}
		})...)
		want := float64(n*(n+1)) / 2
		for p := 0; p < n; p++ {
			if got := sms[p].Result()[0]; got != want {
				t.Fatalf("n=%d rank %d got %v, want %v", n, p, got, want)
			}
		}
	}
}

func TestAllreduceGatherPattern(t *testing.T) {
	// Zero-padded sum reduction assembles a distributed vector — the
	// pattern CG and Lanczos use for their p/v gathers.
	const n = 4
	w := NewWorld(testSpec(n), 1, 0)
	sms := make([]*AllreduceSM, n)
	runProgs(t, w, perRank(n, func(p int) prog {
		vals := make([]float64, n)
		vals[p] = float64(10 + p)
		sms[p] = &AllreduceSM{Tag: 8, Op: OpSum, Vals: vals}
		return prog{sms[p].Step}
	})...)
	for p := 0; p < n; p++ {
		for i := 0; i < n; i++ {
			if got := sms[p].Result()[i]; got != float64(10+i) {
				t.Fatalf("rank %d slot %d = %v", p, i, got)
			}
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	for n := 1; n <= maxTreeRanks; n++ {
		for straggler := 0; straggler < n; straggler++ {
			w := NewWorld(testSpec(n), 1, 0)
			times := runProgs(t, w, perRank(n, func(p int) prog {
				pr := prog{}
				if p == straggler {
					pr = append(pr, compute(100, 0.01)) // 1s ahead of the rest
				}
				return append(pr, (&BarrierSM{Tag: 1}).Step)
			})...)
			for p := 0; p < n; p++ {
				if float64(times[p]) < 1.0 {
					t.Fatalf("n=%d straggler %d: rank %d finished the barrier at %v, before the straggler", n, straggler, p, times[p])
				}
			}
		}
	}
}

func TestBarrierMakesLaterRecvTimingsExact(t *testing.T) {
	// After a barrier, rank clocks differ only by tree overheads (µs),
	// so this documents the collectives' skew is bounded.
	const n = 8
	w := NewWorld(testSpec(n), 1, 0)
	times := runProgs(t, w, perRank(n, func(p int) prog {
		return prog{compute(float64(p), 0.001), (&BarrierSM{Tag: 1}).Step}
	})...)
	max, min := float64(times[0]), float64(times[0])
	for _, tm := range times {
		if float64(tm) > max {
			max = float64(tm)
		}
		if float64(tm) < min {
			min = float64(tm)
		}
	}
	if max-min > 0.01 {
		t.Fatalf("post-barrier skew %v too large", max-min)
	}
}

func TestCollectiveHooksFireOnce(t *testing.T) {
	// A collective is one logical call however often its rank parks in
	// the tree: one Pre and one Post of its kind per rank, and one per
	// nested point-to-point operation.
	kinds := []struct {
		kind CallKind
		sm   func(root int) func(*Rank) bool
	}{
		{CallReduce, func(root int) func(*Rank) bool {
			return (&ReduceSM{Root: root, Tag: 2, Op: OpSum, Vals: []float64{1}}).Step
		}},
		{CallBcast, func(root int) func(*Rank) bool {
			return (&BcastSM{Root: root, Tag: 2, Vals: []float64{1}}).Step
		}},
		{CallBarrier, func(int) func(*Rank) bool { return (&BarrierSM{Tag: 2}).Step }},
	}
	for _, k := range kinds {
		for n := 1; n <= maxTreeRanks; n++ {
			root := n / 2
			w := NewWorld(testSpec(n), 1, 0)
			profs := make([]*countingProfiler, n)
			progs := perRank(n, func(p int) prog {
				profs[p] = newCountingProfiler()
				w.Rank(p).SetProfiler(profs[p])
				// Staggered entry makes early ranks park on late ones.
				return prog{compute(float64(n-p), 0.001), k.sm(root)}
			})
			runProgs(t, w, progs...)
			sends, recvs := 0, 0
			for p, pr := range profs {
				name := fmt.Sprintf("%v n=%d rank %d", k.kind, n, p)
				if pr.pre[k.kind] != 1 || pr.post[k.kind] != 1 {
					t.Fatalf("%s: %d Pre and %d Post hooks, want 1 each", name, pr.pre[k.kind], pr.post[k.kind])
				}
				if pr.pre[CallRecv] != pr.post[CallRecv] {
					t.Fatalf("%s: %d receive Pre hooks for %d receives", name, pr.pre[CallRecv], pr.post[CallRecv])
				}
				sends += pr.post[CallSend]
				recvs += pr.post[CallRecv]
			}
			if sends != recvs {
				t.Fatalf("%v n=%d: %d sends, %d receives", k.kind, n, sends, recvs)
			}
			if w.Stats().Sends != uint64(sends) {
				t.Fatalf("%v n=%d: scheduler carried %d messages, hooks saw %d", k.kind, n, w.Stats().Sends, sends)
			}
		}
	}
}

func TestReduceNaNSafety(t *testing.T) {
	// Collectives must pass values through unchanged, including specials.
	const n = 2
	w := NewWorld(testSpec(n), 1, 0)
	sms := make([]*ReduceSM, n)
	runProgs(t, w, perRank(n, func(p int) prog {
		v := math.Inf(1)
		if p == 1 {
			v = 1
		}
		sms[p] = &ReduceSM{Root: 0, Tag: 1, Op: OpMax, Vals: []float64{v}}
		return prog{sms[p].Step}
	})...)
	if got := sms[0].Result(); !math.IsInf(got[0], 1) {
		t.Fatalf("got %v", got)
	}
}

func TestEncodeDecodeF64s(t *testing.T) {
	in := []float64{0, -1.5, math.Pi, math.MaxFloat64}
	out := decodeF64s(encodeF64s(in))
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}
