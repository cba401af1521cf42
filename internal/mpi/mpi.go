// Package mpi is the message-passing runtime the applications run on: an
// in-process analogue of LAM-MPI (the paper's substrate) in which each
// rank is a resumable program with its own virtual clock, disk, and noise
// streams, and one discrete-event scheduler (internal/sched) drives all
// ranks (World.Run).
//
// Timing semantics mirror what MHETA models (§4.2.2):
//
//   - Send charges the sender os(m) = fixed overhead + per-byte copy cost
//     and is asynchronous — the message is buffered, the sender never
//     blocks ("both nodes perform their sends before blocking").
//     SendSize is the same send without a payload: timing depends only on
//     a message's size m, so a run that keeps no values moves sizes.
//   - A message becomes available at the receiver at
//     sendFinish + transferTime.
//   - A receive (TryRecv) waits in virtual time until availability, then
//     charges the receiver or(m). The waited span is the Twait of
//     Equation 3/4.
//   - Collectives are built from Send/TryRecv over a binomial tree, so
//     their virtual-time behaviour follows from the point-to-point rules
//     and the model can reproduce it arithmetically.
//
// Ranks are coupled only through message timestamps, which is sufficient
// because the applications' communication is deterministic: every receive
// names its source and tag, so matching is unambiguous and the
// virtual-time outcome is independent of the order in which the
// scheduler resumes ranks.
package mpi

import (
	"fmt"

	"mheta/internal/cluster"
	"mheta/internal/disksim"
	"mheta/internal/netsim"
	"mheta/internal/sched"
	"mheta/internal/vclock"
)

// AnyTag matches any message tag in a receive (RecvOp.Tag).
const AnyTag = -1

// Tags at or above reservedTagBase are reserved for collectives.
const reservedTagBase = 1 << 28

// CallKind identifies an intercepted runtime operation for the profiling
// layer (our PMPI analogue; see package mpijack).
type CallKind int

const (
	CallSend CallKind = iota
	CallRecv
	CallReduce
	CallBcast
	CallBarrier
	CallFileRead
	CallFileWrite
	CallPrefetchIssue
	CallPrefetchWait
	CallCompute
)

var callKindNames = [...]string{
	"Send", "Recv", "Reduce", "Bcast", "Barrier",
	"FileRead", "FileWrite", "PrefetchIssue", "PrefetchWait", "Compute",
}

// String implements fmt.Stringer.
func (k CallKind) String() string {
	if int(k) < len(callKindNames) {
		return callKindNames[k]
	}
	return fmt.Sprintf("CallKind(%d)", int(k))
}

// CallInfo describes one intercepted operation. The profiling layer's Pre
// hook sees Start filled in; Post sees End and Wait as well. The runtime
// reuses CallInfo storage across operations (see Profiler), so a hook
// that keeps a call's details copies the struct.
type CallInfo struct {
	Kind  CallKind
	Rank  int
	Peer  int    // destination/source rank, or tree root for collectives
	Bytes int    // payload size
	Var   string // variable name for file operations
	Tag   int
	Start vclock.Time
	End   vclock.Time
	// Wait is the virtual time the rank spent blocked (Recv, PrefetchWait)
	// as opposed to busy.
	Wait vclock.Duration
}

// Duration returns the call's total virtual span.
func (c *CallInfo) Duration() vclock.Duration { return vclock.Duration(c.End - c.Start) }

// Profiler intercepts runtime calls, PMPI-style. Implementations must be
// cheap; they run on every operation of the instrumented rank.
//
// The *CallInfo a hook receives is valid only for the duration of that
// hook: leaf operations (Compute, Send, SendSize, File*) fill one
// CallInfo owned by the rank, and receives and collectives one owned by
// their op or state machine, so no operation allocates one. A hook must
// not retain the pointer.
type Profiler interface {
	Pre(*CallInfo)
	Post(*CallInfo)
}

// World is one emulated cluster run: ranks, network, disks, and the
// scheduler that carries messages between ranks and drives them.
type World struct {
	spec  cluster.Spec
	net   *netsim.Network
	ranks []*Rank
	sched *sched.Scheduler
	// running is set while Run drives the ranks; outside it a receive
	// that finds no message cannot park, and panics instead.
	running bool
}

// NewWorld builds a world for the given cluster spec. seed drives all
// noise streams; noiseAmp is the perturbation amplitude (0 disables noise,
// giving the model's idealised timing — used by the ablation benches).
func NewWorld(spec cluster.Spec, seed uint64, noiseAmp float64) *World {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n := spec.N()
	root := vclock.NewNoise(seed, noiseAmp)
	// The network's cost model is shared and read-only; perturbation
	// happens per rank (netNz below) so no rank's draws depend on the
	// order in which the scheduler resumes ranks.
	w := &World{
		spec:  spec,
		net:   netsim.New(n, spec.Net, nil),
		ranks: make([]*Rank, n),
		sched: sched.New(n),
	}
	for r := 0; r < n; r++ {
		nodeNoise := root.Fork(uint64(r) + 1)
		w.ranks[r] = &Rank{
			world:    w,
			rank:     r,
			clk:      vclock.NewClock(),
			disk:     disksim.New(spec.DiskParams(r), nodeNoise.Fork(1)),
			compNz:   nodeNoise.Fork(2),
			netNz:    nodeNoise.Fork(3),
			cpuPower: spec.Nodes[r].CPUPower,
			memBytes: spec.Nodes[r].MemoryBytes,
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Spec returns the cluster spec the world was built from.
func (w *World) Spec() cluster.Spec { return w.spec }

// Rank returns rank r's handle (for pre-run data placement and post-run
// inspection).
func (w *World) Rank(r int) *Rank { return w.ranks[r] }

// ResetClocks rewinds every rank's clock and disk service queue, and
// empties the scheduler, so the same world (with data already on disk)
// can run another phase.
func (w *World) ResetClocks() {
	for _, r := range w.ranks {
		r.clk.Reset()
		r.disk.ResetTiming()
	}
	w.sched.Reset()
}

// Stats returns the scheduler's counters since the world was built or
// last had its clocks reset: dispatches, messages, parks and wakes.
func (w *World) Stats() sched.Stats { return w.sched.Stats() }

// Rank is one process of the emulated application. Its operations run
// on the caller's goroutine and advance only this rank's clock; a Rank is
// not safe for concurrent use, and neither is its World. Ranks are
// normally driven by World.Run's step function; operations that cannot
// park (everything but a receive that finds no message) may also be
// called outside it, as may the data-placement helpers Disk and
// SetProfiler.
type Rank struct {
	world    *World
	rank     int
	clk      *vclock.Clock
	disk     *disksim.Disk
	compNz   *vclock.Noise
	netNz    *vclock.Noise
	cpuPower float64
	memBytes int64
	prof     Profiler
	// ci is the CallInfo of the leaf operation in progress; leaf
	// operations never nest, so one per rank suffices.
	ci CallInfo
	// Interference models a non-dedicated environment (§3.2 assumes a
	// dedicated one and defers multiprogramming to future work): external
	// load steals CPU, inflating compute times by a deterministic,
	// slowly-varying factor in [1, 1+amp] driven by virtual time with a
	// per-rank phase. Zero amplitude (the default) is the paper's
	// dedicated cluster.
	intfAmp    float64
	intfPeriod float64
}

// Rank returns this rank's id.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.Size() }

// Now returns the rank's current virtual time.
func (r *Rank) Now() vclock.Time { return r.clk.Now() }

// Clock exposes the rank's clock (for harness bookkeeping).
func (r *Rank) Clock() *vclock.Clock { return r.clk }

// Disk exposes the rank's local disk (for data placement and assertions).
func (r *Rank) Disk() *disksim.Disk { return r.disk }

// CPUPower returns the rank's relative CPU power.
func (r *Rank) CPUPower() float64 { return r.cpuPower }

// MemoryBytes returns the node's ICLA memory budget.
func (r *Rank) MemoryBytes() int64 { return r.memBytes }

// SetProfiler attaches a profiling layer (nil detaches).
func (r *Rank) SetProfiler(p Profiler) { r.prof = p }

func (r *Rank) pre(ci *CallInfo) {
	ci.Rank = r.rank
	ci.Start = r.clk.Now()
	if r.prof != nil {
		r.prof.Pre(ci)
	}
}

func (r *Rank) post(ci *CallInfo) {
	ci.End = r.clk.Now()
	if r.prof != nil {
		r.prof.Post(ci)
	}
}

// SetInterference configures non-dedicated-environment load on this rank
// (amplitude ≥ 0; period is the load oscillation in virtual seconds,
// default 1s when ≤ 0). Used by the robustness experiments; the model
// never sees it.
func (r *Rank) SetInterference(amp, period float64) {
	if amp < 0 {
		amp = 0
	}
	if period <= 0 {
		period = 1
	}
	r.intfAmp, r.intfPeriod = amp, period
}

// interferenceFactor is the current external-load multiplier: a smooth
// per-rank phase-shifted wave of virtual time, so it is deterministic and
// uncorrelated across ranks.
func (r *Rank) interferenceFactor() float64 {
	if r.intfAmp == 0 {
		return 1
	}
	x := float64(r.clk.Now())/r.intfPeriod + float64(r.rank)*0.37
	x -= float64(int64(x)) // frac
	// Smooth triangle wave in [0,1]: cheap, deterministic, no math import.
	if x > 0.5 {
		x = 1 - x
	}
	return 1 + r.intfAmp*2*x
}

// Compute advances the rank's clock by work·unitCost/CPUPower, perturbed
// by the rank's compute-noise stream and any configured external load.
// work is in abstract units; unitCost is the application's
// seconds-per-unit on a power-1.0 node.
func (r *Rank) Compute(work, unitCost float64) {
	ci := r.leaf(CallInfo{Kind: CallCompute})
	r.pre(ci)
	if work > 0 {
		d := vclock.Duration(work * unitCost / r.cpuPower * r.interferenceFactor())
		r.clk.Advance(r.compNz.Perturb(d))
	}
	r.post(ci)
}

// Send transmits a copy of data to rank dst with the given tag. It
// charges the sender os(m) and never blocks.
func (r *Rank) Send(dst, tag int, data []byte) {
	r.send(dst, tag, len(data), append([]byte(nil), data...))
}

// SendSize transmits an n-byte message without a payload: it costs
// exactly what Send of n bytes costs, in virtual time and in profiler
// hooks, and the receiver's TryRecv returns nil data. Runs that keep no
// values use it, since no clock depends on what a message holds.
//
//mheta:units bytes n
func (r *Rank) SendSize(dst, tag, n int) {
	if n < 0 {
		panic(fmt.Sprintf("mpi: SendSize of %d bytes", n))
	}
	r.send(dst, tag, n, nil)
}

// send charges os(n), stamps the arrival and queues an n-byte message
// carrying payload (nil for a size-only one).
//
//mheta:units bytes n
func (r *Rank) send(dst, tag, n int, payload []byte) {
	if dst == r.rank {
		panic("mpi: Send to self")
	}
	ci := r.leaf(CallInfo{Kind: CallSend, Peer: dst, Bytes: n, Tag: tag})
	r.pre(ci)
	r.clk.Advance(r.netNz.Perturb(r.world.net.SendCost(r.rank, dst, n)))
	arrival := r.clk.Now() + vclock.Time(r.netNz.Perturb(r.world.net.TransferTime(r.rank, dst, n)))
	r.world.sched.Send(r.rank, dst, sched.Msg{Tag: tag, Bytes: n, Data: payload, Arrival: arrival})
	r.post(ci)
}

// leaf resets the rank's leaf-operation CallInfo to ci and returns it.
func (r *Rank) leaf(ci CallInfo) *CallInfo {
	r.ci = ci
	return &r.ci
}
