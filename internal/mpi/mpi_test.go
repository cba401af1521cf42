package mpi

import (
	"sync"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/netsim"
	"mheta/internal/vclock"
)

// testSpec returns a small homogeneous cluster with exact (noise-free)
// costs so timing assertions can be sharp.
func testSpec(n int) cluster.Spec {
	s, _ := cluster.Named("DC")
	spec := cluster.Spec{Name: "test", Net: s.Net, Disk: s.Disk}
	for i := 0; i < n; i++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeSpec{CPUPower: 1, MemoryBytes: 1 << 20, DiskScale: 1})
	}
	return spec
}

func TestSendRecvDelivers(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 5, []byte("payload"))
		case 1:
			got = r.Recv(0, 5)
		}
	})
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvTimingBlockedReceiver(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	net := spec.Net
	times := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 1, make([]byte, 100))
		case 1:
			r.Recv(0, 1)
		}
	})
	// Receiver finishes at os + wire + or.
	want := float64(net.SendCost(100) + net.TransferTime(100) + net.RecvCost(100))
	if got := float64(times[1]); !close(got, want) {
		t.Fatalf("receiver at %v, want %v", got, want)
	}
	// Sender finishes after just the send overhead.
	if got := float64(times[0]); !close(got, float64(net.SendCost(100))) {
		t.Fatalf("sender at %v", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d > -1e-12 && d < 1e-12
}

func TestRecvTimingLateReceiverPaysNoWait(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	net := spec.Net
	const delay = 1.0
	times := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 1, make([]byte, 100))
		case 1:
			r.Compute(delay, 1) // arrive late: message already there
			r.Recv(0, 1)
		}
	})
	want := delay + float64(net.RecvCost(100))
	if got := float64(times[1]); !close(got, want) {
		t.Fatalf("receiver at %v, want %v", got, want)
	}
}

func TestSendNeverBlocks(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	times := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 100; i++ {
				r.Send(1, 1, make([]byte, 10))
			}
		} else {
			r.Compute(5, 1)
			for i := 0; i < 100; i++ {
				r.Recv(0, 1)
			}
		}
	})
	// Sender's time is 100 sends only, far below the receiver's 5s.
	if times[0] >= 1 {
		t.Fatalf("sender blocked: %v", times[0])
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var first, second []byte
	w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 1, []byte("one"))
			r.Send(1, 2, []byte("two"))
		case 1:
			second = r.Recv(0, 2) // posted first, matches tag 2
			first = r.Recv(0, 1)
		}
	})
	if string(first) != "one" || string(second) != "two" {
		t.Fatalf("got %q, %q", first, second)
	}
}

func TestFIFOWithinTag(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []string
	w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 1, []byte("a"))
			r.Send(1, 1, []byte("b"))
			r.Send(1, 1, []byte("c"))
		case 1:
			for i := 0; i < 3; i++ {
				got = append(got, string(r.Recv(0, 1)))
			}
		}
	})
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order %v", got)
	}
}

func TestAnyTagMatchesFirst(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 77, []byte("x"))
		case 1:
			got = r.Recv(0, AnyTag)
		}
	})
	if string(got) != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestComputeScalesWithCPUPower(t *testing.T) {
	spec := testSpec(2)
	spec.Nodes[1].CPUPower = 2
	w := NewWorld(spec, 1, 0)
	times := w.Run(func(r *Rank) {
		r.Compute(10, 0.1) // 1s of work at power 1
	})
	if !close(float64(times[0]), 1.0) {
		t.Fatalf("power-1 node took %v", times[0])
	}
	if !close(float64(times[1]), 0.5) {
		t.Fatalf("power-2 node took %v, want 0.5", times[1])
	}
}

func TestSendToSelfPanics(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(0, 1, nil)
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := []byte{1, 2, 3}
			r.Send(1, 1, buf)
			buf[0] = 99 // must not affect the in-flight message
		case 1:
			r.Compute(1, 1)
			got = r.Recv(0, 1)
		}
	})
	if got[0] != 1 {
		t.Fatal("message aliased the sender's buffer")
	}
}

func TestResetClocks(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	w.Run(func(r *Rank) { r.Compute(1, 1) })
	w.ResetClocks()
	times := w.Run(func(r *Rank) {})
	for _, tm := range times {
		if tm != 0 {
			t.Fatalf("clock not reset: %v", tm)
		}
	}
}

func TestWorldRunPropagatesPanic(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("rank panic not propagated")
		}
	}()
	w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			panic("boom")
		}
	})
}

type countingProfiler struct {
	mu    sync.Mutex
	pre   map[CallKind]int
	post  map[CallKind]int
	waits vclock.Duration
}

func newCountingProfiler() *countingProfiler {
	return &countingProfiler{pre: map[CallKind]int{}, post: map[CallKind]int{}}
}

func (p *countingProfiler) Pre(ci *CallInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pre[ci.Kind]++
}

func (p *countingProfiler) Post(ci *CallInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.post[ci.Kind]++
	p.waits += ci.Wait
}

func TestProfilerSeesCalls(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	prof := newCountingProfiler()
	w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			r.SetProfiler(prof)
		}
		switch r.Rank() {
		case 0:
			r.Compute(0.001, 1)
			r.Send(1, 1, make([]byte, 10))
		case 1:
			r.Recv(0, 1)
			r.Compute(0.001, 1)
		}
	})
	if prof.post[CallRecv] != 1 || prof.post[CallCompute] != 1 {
		t.Fatalf("profiler counts %v", prof.post)
	}
	if prof.waits <= 0 {
		t.Fatal("blocked recv must report positive wait")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []vclock.Time {
		w := NewWorld(cluster.HY1(8), 42, 0.02)
		return w.Run(func(r *Rank) {
			n := r.Size()
			r.Compute(float64(r.Rank()+1), 0.01)
			if r.Rank() < n-1 {
				r.Send(r.Rank()+1, 1, make([]byte, 64))
			}
			if r.Rank() > 0 {
				r.Recv(r.Rank()-1, 1)
			}
			r.Allreduce(9, OpSum, []float64{1})
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %v vs %v — emulation not deterministic", i, a[i], b[i])
		}
	}
}

func TestMemoryBytesExposed(t *testing.T) {
	spec := testSpec(2)
	spec.Nodes[1].MemoryBytes = 12345
	w := NewWorld(spec, 1, 0)
	if w.Rank(1).MemoryBytes() != 12345 {
		t.Fatal("MemoryBytes wrong")
	}
}

func TestCallKindString(t *testing.T) {
	if CallSend.String() != "Send" || CallPrefetchWait.String() != "PrefetchWait" {
		t.Fatal("CallKind strings wrong")
	}
	if CallKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestSendrecv(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	var got0, got1 []byte
	w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			got0 = r.Sendrecv(1, 1, []byte("from0"), 1, 2)
		case 1:
			got1 = r.Sendrecv(0, 2, []byte("from1"), 0, 1)
		}
	})
	if string(got0) != "from1" || string(got1) != "from0" {
		t.Fatalf("sendrecv got %q, %q", got0, got1)
	}
}

func TestNetworkLinkOverride(t *testing.T) {
	// Sanity check that netsim integration honours per-link params.
	p := netsim.DefaultParams()
	nw := netsim.New(2, p, nil)
	slow := p
	slow.Latency = 1
	nw.SetLink(0, 1, slow)
	if nw.TransferTime(0, 1, 0) != 1 {
		t.Fatal("per-link override lost")
	}
}

func TestInterferenceInflatesCompute(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	times := w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			r.SetInterference(0.5, 0.25)
		}
		for i := 0; i < 100; i++ {
			r.Compute(1, 0.01) // 1s total at factor 1
		}
	})
	if !close(float64(times[0]), 1.0) {
		t.Fatalf("idle rank took %v, want 1s", times[0])
	}
	// Loaded rank: factor averages ≈1.25 over the wave.
	if times[1] <= 1.05 || times[1] >= 1.5 {
		t.Fatalf("loaded rank took %v, want ≈1.25s", times[1])
	}
}

func TestInterferenceDeterministic(t *testing.T) {
	run := func() vclock.Time {
		w := NewWorld(testSpec(1), 1, 0)
		return w.Run(func(r *Rank) {
			r.SetInterference(0.3, 0.1)
			for i := 0; i < 50; i++ {
				r.Compute(1, 0.005)
			}
		})[0]
	}
	if run() != run() {
		t.Fatal("interference not deterministic")
	}
}

func TestFileOpsThroughRank(t *testing.T) {
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	var got []byte
	var waited bool
	w.Run(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		r.Disk().Store("v", make([]byte, 256))
		r.FileWrite("v", 8, []byte{1, 2, 3})
		got = r.FileRead("v", 8, 3)
		tag := r.FilePrefetchIssue("v", 0, 64)
		data := r.FilePrefetchWait("v", tag)
		waited = len(data) == 64
		if r.Now() <= 0 {
			t.Error("file ops charged no time")
		}
		_ = r.CPUPower()
		_ = r.Clock()
		_ = r.Disk()
	})
	if string(got) != string([]byte{1, 2, 3}) || !waited {
		t.Fatalf("file ops data wrong: %v %v", got, waited)
	}
}

func TestWorldSpecAndWaitUntil(t *testing.T) {
	spec := testSpec(3)
	w := NewWorld(spec, 1, 0)
	if w.Spec().N() != 3 {
		t.Fatal("Spec wrong")
	}
	w.Run(func(r *Rank) {
		if d := r.WaitUntil(0.5); float64(d) != 0.5 {
			t.Errorf("WaitUntil returned %v", d)
		}
	})
}

func TestCallInfoDuration(t *testing.T) {
	ci := CallInfo{Start: 1, End: 3.5}
	if ci.Duration() != 2.5 {
		t.Fatalf("Duration %v", ci.Duration())
	}
}
