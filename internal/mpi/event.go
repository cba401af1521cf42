package mpi

// The driver: every rank is a resumable program, and World.Run resumes
// ranks one at a time from the world's discrete-event scheduler
// (internal/sched, DESIGN.md §5.13).
//
// The only operation that waits on another rank is a receive;
// everything else advances the calling rank's own clock. So a rank's
// program runs as straight-line code with explicit park points at each
// receive: TryRecv either completes the receive, or parks the rank in
// the scheduler and returns false, to be retried once the matching Send
// wakes it. Collectives (collectives.go) are state machines over the
// same primitive.
//
// Determinism follows from two properties, both enforced here:
//
//  1. Per-rank op order is fixed by the rank's program — every pre/post
//     hook, clock advance, and noise draw happens in program order, with
//     a receive's pre hook fired once per logical call (before the first
//     match attempt) however often the rank parks on it.
//  2. Message matching is per-(src,dst) FIFO with tag filtering, so
//     which message a receive takes does not depend on when it runs.
//
// Since all cross-rank data flow is message timestamps, any dispatch
// order the scheduler picks yields the same clocks, traces and
// recorders.

import "fmt"

// RecvOp is one receive in flight. The zero value with Src and Tag set
// is ready for the first TryRecv; the op keeps the pre-fired CallInfo
// across park/resume so profiler hooks fire exactly once per logical
// receive.
type RecvOp struct {
	Src, Tag int
	ci       CallInfo
	started  bool
}

// TryRecv attempts the receive described by op. On a match it advances
// the clock to the message's arrival (the blocked span is the CallInfo's
// Wait), charges or(m) for the message's size, fires the Post hook and
// returns the payload (nil for a SendSize message). On
// a miss inside World.Run it parks the rank on (src, tag) and returns
// false: the step function must return false and retry the same op when
// Run resumes the rank. Outside World.Run nothing could resume the rank,
// so a miss panics.
func (r *Rank) TryRecv(op *RecvOp) ([]byte, bool) {
	if op.Src == r.rank {
		panic("mpi: Recv from self")
	}
	if !op.started {
		op.ci = CallInfo{Kind: CallRecv, Peer: op.Src, Tag: op.Tag}
		r.pre(&op.ci)
		op.started = true
	}
	s := r.world.sched
	m, ok := s.TryRecv(op.Src, r.rank, op.Tag)
	if !ok {
		if !r.world.running {
			panic(fmt.Sprintf("mpi: rank %d: no message from rank %d with tag %d, and no World.Run to wait in", r.rank, op.Src, op.Tag))
		}
		s.Park(r.rank, op.Src, op.Tag, r.clk.Now())
		return nil, false
	}
	op.ci.Bytes = m.Bytes
	op.ci.Wait = r.clk.WaitUntil(m.Arrival)
	r.clk.Advance(r.netNz.Perturb(r.world.net.RecvCost(op.Src, r.rank, m.Bytes)))
	r.post(&op.ci)
	return m.Data, true
}

// Run drives every rank to completion. Each rank is readied at its
// current clock; Run then repeatedly resumes the earliest ready rank by
// calling step, which runs that rank's program forward and returns true
// once the rank has finished, or false after a TryRecv parked it. A
// rank's program must keep its own position between calls (see
// exec's interpreter, or the collectives' state machines).
//
// Run returns an error, with the scheduler's blocking picture, when
// ranks remain unfinished but none can run — a deadlock; the world must
// then have its clocks reset before it runs again. A panic in step is
// re-raised as "mpi: rank N panicked: ...".
func (w *World) Run(step func(r *Rank) bool) error {
	s := w.sched
	for _, r := range w.ranks {
		s.Ready(r.rank, r.clk.Now())
	}
	w.running = true
	defer func() { w.running = false }()
	for remaining := len(w.ranks); remaining > 0; {
		p, ok := s.Next()
		if !ok {
			return fmt.Errorf("mpi: deadlock with %d ranks unfinished: %s", remaining, s.DumpState())
		}
		if w.resume(step, w.ranks[p]) {
			remaining--
		}
	}
	return nil
}

// resume runs one step of rank r, naming the rank in any panic.
func (w *World) resume(step func(r *Rank) bool, r *Rank) (done bool) {
	defer func() {
		if p := recover(); p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", r.rank, p))
		}
	}()
	return step(r)
}
