package mpi

import (
	"fmt"
	"strings"
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

// prog is one rank's program in these tests: steps run in order, and a
// step that returns false has parked and is retried when the rank
// resumes.
type prog []func(r *Rank) bool

// drive runs rank p through progs[p] under World.Run; ranks without a
// program finish at once.
func drive(w *World, progs ...prog) error {
	pcs := make([]int, w.Size())
	return w.Run(func(r *Rank) bool {
		p := r.Rank()
		for ; p < len(progs) && pcs[p] < len(progs[p]); pcs[p]++ {
			if !progs[p][pcs[p]](r) {
				return false
			}
		}
		return true
	})
}

// runProgs drives the programs and returns every rank's final clock.
func runProgs(t *testing.T, w *World, progs ...prog) []vclock.Time {
	t.Helper()
	if err := drive(w, progs...); err != nil {
		t.Fatal(err)
	}
	times := make([]vclock.Time, w.Size())
	for p := range times {
		times[p] = w.Rank(p).Now()
	}
	return times
}

// perRank builds one program per rank of an n-rank world.
func perRank(n int, f func(p int) prog) []prog {
	progs := make([]prog, n)
	for p := range progs {
		progs[p] = f(p)
	}
	return progs
}

// do is a step that cannot park.
func do(f func(r *Rank)) func(*Rank) bool {
	return func(r *Rank) bool { f(r); return true }
}

// recv is a step receiving one message from src with tag into *out (when
// out is non-nil).
func recv(src, tag int, out *[]byte) func(*Rank) bool {
	op := &RecvOp{Src: src, Tag: tag}
	return func(r *Rank) bool {
		data, ok := r.TryRecv(op)
		if ok && out != nil {
			*out = data
		}
		return ok
	}
}

func send(dst, tag int, data []byte) func(*Rank) bool {
	return do(func(r *Rank) { r.Send(dst, tag, data) })
}

func compute(work, unitCost float64) func(*Rank) bool {
	return do(func(r *Rank) { r.Compute(work, unitCost) })
}

func TestSendRecvDelivers(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	runProgs(t, w,
		prog{send(1, 5, []byte("payload"))},
		prog{recv(0, 5, &got)})
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvTimingBlockedReceiver(t *testing.T) {
	// Rank 0 runs first, finds no message and parks until rank 1 sends.
	spec := testSpec(2)
	w := NewWorld(spec, 1, 0)
	net := spec.Net
	times := runProgs(t, w,
		prog{recv(1, 1, nil)},
		prog{send(0, 1, make([]byte, 100))})
	// Receiver finishes at os + wire + or.
	want := float64(net.SendCost(100) + net.TransferTime(100) + net.RecvCost(100))
	if got := float64(times[0]); !close(got, want) {
		t.Fatalf("receiver at %v, want %v", got, want)
	}
	// Sender finishes after just the send overhead.
	if got := float64(times[1]); !close(got, float64(net.SendCost(100))) {
		t.Fatalf("sender at %v", got)
	}
	if st := w.Stats(); st.Parks != 1 || st.Wakes != 1 {
		t.Fatalf("receiver did not park and wake once: %+v", st)
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
	times := runProgs(t, w,
		prog{send(1, 1, make([]byte, 100))},
		prog{compute(delay, 1), recv(0, 1, nil)}) // arrive late: message already there
	want := delay + float64(net.RecvCost(100))
	if got := float64(times[1]); !close(got, want) {
		t.Fatalf("receiver at %v, want %v", got, want)
	}
}

func TestSendNeverBlocks(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var sender, receiver prog
	receiver = append(receiver, compute(5, 1))
	for i := 0; i < 100; i++ {
		sender = append(sender, send(1, 1, make([]byte, 10)))
		receiver = append(receiver, recv(0, 1, nil))
	}
	times := runProgs(t, w, sender, receiver)
	// Sender's time is 100 sends only, far below the receiver's 5s.
	if times[0] >= 1 {
		t.Fatalf("sender blocked: %v", times[0])
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// The receiver (rank 0) parks on tag 2 first; the tag-1 message that
	// arrives before it must not wake or satisfy it.
	w := NewWorld(testSpec(2), 1, 0)
	var first, second []byte
	runProgs(t, w,
		prog{recv(1, 2, &second), recv(1, 1, &first)},
		prog{send(0, 1, []byte("one")), send(0, 2, []byte("two"))})
	if string(first) != "one" || string(second) != "two" {
		t.Fatalf("got %q, %q", first, second)
	}
}

func TestFIFOWithinTag(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	got := make([][]byte, 3)
	runProgs(t, w,
		prog{recv(1, 1, &got[0]), recv(1, 1, &got[1]), recv(1, 1, &got[2])},
		prog{send(0, 1, []byte("a")), send(0, 1, []byte("b")), send(0, 1, []byte("c"))})
	if string(got[0]) != "a" || string(got[1]) != "b" || string(got[2]) != "c" {
		t.Fatalf("order %q", got)
	}
}

func TestAnyTagMatchesFirst(t *testing.T) {
	// Parked on AnyTag, rank 0 is woken by whichever tag arrives first.
	w := NewWorld(testSpec(2), 1, 0)
	var got, rest []byte
	runProgs(t, w,
		prog{recv(1, AnyTag, &got), recv(1, AnyTag, &rest)},
		prog{send(0, 77, []byte("x")), send(0, 3, []byte("y"))})
	if string(got) != "x" || string(rest) != "y" {
		t.Fatalf("got %q then %q", got, rest)
	}
}

func TestComputeScalesWithCPUPower(t *testing.T) {
	spec := testSpec(2)
	spec.Nodes[1].CPUPower = 2
	w := NewWorld(spec, 1, 0)
	work := prog{compute(10, 0.1)} // 1s of work at power 1
	times := runProgs(t, w, work, work)
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
	w.Rank(0).Send(0, 1, nil)
}

func TestRecvFromSelfPanics(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w.Rank(1).TryRecv(&RecvOp{Src: 1, Tag: 1})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	var got []byte
	runProgs(t, w,
		prog{do(func(r *Rank) {
			buf := []byte{1, 2, 3}
			r.Send(1, 1, buf)
			buf[0] = 99 // must not affect the in-flight message
		})},
		prog{compute(1, 1), recv(0, 1, &got)})
	if got[0] != 1 {
		t.Fatal("message aliased the sender's buffer")
	}
}

func TestResetClocks(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	// Leave a message undelivered: the reset must drop it with the clocks.
	runProgs(t, w, prog{compute(1, 1), send(1, 1, nil)}, prog{compute(1, 1)})
	w.ResetClocks()
	if st := w.Stats(); st.Sends != 0 || st.Events != 0 {
		t.Fatalf("scheduler counters survived the reset: %+v", st)
	}
	for _, tm := range runProgs(t, w) {
		if tm != 0 {
			t.Fatalf("clock not reset: %v", tm)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a message sent before the reset was still delivered")
		}
	}()
	w.Rank(1).TryRecv(&RecvOp{Src: 0, Tag: 1})
}

func TestWorldRunPropagatesPanic(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	defer func() {
		p := recover()
		if msg, _ := p.(string); !strings.HasPrefix(msg, "mpi: rank 1 panicked: boom") {
			t.Fatalf("recovered %v, want the rank-1 report", p)
		}
	}()
	w.Run(func(r *Rank) bool {
		if r.Rank() == 1 {
			panic("boom")
		}
		return true
	})
	t.Fatal("rank panic not propagated")
}

func TestWorldRunReportsDeadlock(t *testing.T) {
	// Each rank waits for the other first: nothing can ever run.
	w := NewWorld(testSpec(2), 1, 0)
	err := drive(w, perRank(2, func(p int) prog { return prog{recv(1-p, 4, nil), send(1-p, 4, nil)} })...)
	if err == nil {
		t.Fatal("mutual receive did not report a deadlock")
	}
	for _, want := range []string{"deadlock with 2 ranks unfinished", "2 parked", "[rank 0 ← src 1 tag 4 @0]", "[rank 1 ← src 0 tag 4 @0]", "0 undelivered"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %q lacks %q", err, want)
		}
	}
}

func TestRecvOutsideRun(t *testing.T) {
	// Outside World.Run a receive whose message was already sent
	// completes; one whose message does not exist panics instead of
	// parking, since nothing would resume the rank.
	w := NewWorld(testSpec(2), 1, 0)
	w.Rank(0).Send(1, 2, []byte("ok"))
	if data, ok := w.Rank(1).TryRecv(&RecvOp{Src: 0, Tag: 2}); !ok || string(data) != "ok" {
		t.Fatalf("TryRecv after the send = %q, %v", data, ok)
	}
	defer func() {
		p := recover()
		if msg := fmt.Sprint(p); !strings.Contains(msg, "no message from rank 0 with tag 2") {
			t.Fatalf("recovered %v, want a miss report", p)
		}
		if st := w.Stats(); st.Parks != 0 {
			t.Fatalf("a receive outside Run parked: %+v", st)
		}
	}()
	w.Rank(1).TryRecv(&RecvOp{Src: 0, Tag: 2})
}

type countingProfiler struct {
	pre   map[CallKind]int
	post  map[CallKind]int
	waits vclock.Duration
}

func newCountingProfiler() *countingProfiler {
	return &countingProfiler{pre: map[CallKind]int{}, post: map[CallKind]int{}}
}

func (p *countingProfiler) Pre(ci *CallInfo) { p.pre[ci.Kind]++ }

func (p *countingProfiler) Post(ci *CallInfo) {
	p.post[ci.Kind]++
	p.waits += ci.Wait
}

func TestProfilerSeesCalls(t *testing.T) {
	// Rank 0's receive parks before rank 1 sends; its hooks must still
	// fire once per logical receive.
	w := NewWorld(testSpec(2), 1, 0)
	prof := newCountingProfiler()
	w.Rank(0).SetProfiler(prof)
	runProgs(t, w,
		prog{recv(1, 1, nil), compute(0.001, 1)},
		prog{compute(0.001, 1), send(0, 1, make([]byte, 10))})
	if st := w.Stats(); st.Parks != 1 {
		t.Fatalf("receiver parked %d times, want 1", st.Parks)
	}
	if prof.pre[CallRecv] != 1 || prof.post[CallRecv] != 1 || prof.post[CallCompute] != 1 {
		t.Fatalf("profiler counts pre %v post %v", prof.pre, prof.post)
	}
	if prof.waits <= 0 {
		t.Fatal("blocked recv must report positive wait")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []vclock.Time {
		w := NewWorld(cluster.HY1(8), 42, 0.02)
		return runProgs(t, w, perRank(8, func(p int) prog {
			pr := prog{compute(float64(p+1), 0.01)}
			if p < 7 {
				pr = append(pr, send(p+1, 1, make([]byte, 64)))
			}
			if p > 0 {
				pr = append(pr, recv(p-1, 1, nil))
			}
			return append(pr, (&AllreduceSM{Tag: 9, Op: OpSum, Vals: []float64{1}}).Step)
		})...)
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
	w.Rank(1).SetInterference(0.5, 0.25)
	for p := 0; p < 2; p++ {
		for i := 0; i < 100; i++ {
			w.Rank(p).Compute(1, 0.01) // 1s total at factor 1
		}
	}
	if !close(float64(w.Rank(0).Now()), 1.0) {
		t.Fatalf("idle rank took %v, want 1s", w.Rank(0).Now())
	}
	// Loaded rank: factor averages ≈1.25 over the wave.
	if got := w.Rank(1).Now(); got <= 1.05 || got >= 1.5 {
		t.Fatalf("loaded rank took %v, want ≈1.25s", got)
	}
}

func TestInterferenceDeterministic(t *testing.T) {
	run := func() vclock.Time {
		r := NewWorld(testSpec(1), 1, 0).Rank(0)
		r.SetInterference(0.3, 0.1)
		for i := 0; i < 50; i++ {
			r.Compute(1, 0.005)
		}
		return r.Now()
	}
	if run() != run() {
		t.Fatal("interference not deterministic")
	}
}

func TestFileOpsThroughRank(t *testing.T) {
	w := NewWorld(testSpec(2), 1, 0)
	r := w.Rank(0)
	r.Disk().Store("v", make([]byte, 256))
	r.FileWrite("v", 8, []byte{1, 2, 3})
	got := r.FileRead("v", 8, 3)
	tag := r.FilePrefetchIssue("v", 0, 64)
	data := r.FilePrefetchWait("v", tag)
	if r.Now() <= 0 {
		t.Error("file ops charged no time")
	}
	if r.CPUPower() != 1 || r.Clock().Now() != r.Now() {
		t.Error("rank accessors disagree with the spec")
	}
	if string(got) != string([]byte{1, 2, 3}) || len(data) != 64 {
		t.Fatalf("file ops data wrong: %v %d", got, len(data))
	}
}

func TestWorldSpecAndWaitUntil(t *testing.T) {
	spec := testSpec(3)
	w := NewWorld(spec, 1, 0)
	if w.Spec().N() != 3 {
		t.Fatal("Spec wrong")
	}
	for p := 0; p < 3; p++ {
		if d := w.Rank(p).WaitUntil(0.5); float64(d) != 0.5 {
			t.Errorf("WaitUntil returned %v", d)
		}
	}
}

func TestCallInfoDuration(t *testing.T) {
	ci := CallInfo{Start: 1, End: 3.5}
	if ci.Duration() != 2.5 {
		t.Fatalf("Duration %v", ci.Duration())
	}
}
