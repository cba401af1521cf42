// Package exec is the application executor: it interprets a program.IR on
// the emulated cluster — out-of-core I/O through disksim and message
// passing through mpi, all under virtual time. This is the "actual
// execution" side of the paper's evaluation; the core package is the
// predicting side.
//
// A run has two planes. The timing plane charges virtual time: work units
// from State.Work, chunk and extent sizes, and the message sizes the IR
// declares (MsgBytesPerNeighbor, ReduceBytes). Virtual time never depends
// on data values, so by default that is all a run computes: datasets are
// size-only disk extents, and messages and reductions carry only their
// sizes (mpi.Rank.SendSize, size-only collectives). The data plane — the
// applications' real numeric kernels over real bytes — runs only when
// Options.Numerics is set, for callers that inspect computed values (the
// applications' reference tests, examples). Both planes run the same
// code path and produce bit-identical clocks, traces and recorders.
//
// The executor owns the structure MHETA assumes (§3.1): iterations contain
// parallel sections, sections contain tiles, tiles contain stages; each
// stage streams at most one out-of-core variable through memory in ICLA
// chunks, optionally with the Figure 6 prefetch unrolling; sections end in
// nearest-neighbour, pipelined, or reduction communication.
//
// Residency decisions use memsim.PlanGreedy — the runtime's real packing —
// which MHETA approximates with the simpler memsim.Plan; their boundary
// disagreements reproduce the paper's §5.4 limitation 2.
package exec

import (
	"fmt"

	"mheta/internal/cluster"
	"mheta/internal/disksim"
	"mheta/internal/dist"
	"mheta/internal/memsim"
	"mheta/internal/mpi"
	"mheta/internal/mpijack"
	"mheta/internal/program"
	"mheta/internal/sched"
	"mheta/internal/trace"
)

// Mode selects a plain run or the instrumented iteration.
type Mode int

const (
	// ModeRun executes all iterations with no interception.
	ModeRun Mode = iota
	// ModeInstrument executes a single iteration with MPI-Jack recorders
	// attached, forced I/O for all distributed variables (§4.1.1), and
	// the Figure 5 prefetch transform.
	ModeInstrument
)

// State is the per-rank application state: a cost function plus numeric
// kernels over whatever halos, in-core vectors and replicated data the
// application keeps. Only Work is called in every run; the other methods
// form the data plane and run only under Options.Numerics.
type State interface {
	// Init runs once before the iteration loop: it lays the rank's blocks
	// out on its local disk (untimed — the dataset starts on local disk
	// under the Local Placement rule) and prepares in-memory state.
	// In-core variables are loaded by the executor after Init returns.
	// Timing-only runs skip Init and reserve size-only extents of each
	// distributed variable instead.
	Init(nc *NodeCtx)
	// Work returns the work units that rows [gRow, gRow+nRows) of stage
	// (sec, stg) within tile consume when the stage's chunk is chunkBytes
	// long (0 when the stage streams no variable). It is the only source
	// of charged computation, so it must not depend on data values or on
	// Init. Returning actual per-row cost (e.g. nonzero counts for sparse
	// CG) is how irregular workloads diverge from MHETA's uniform-scaling
	// assumption.
	Work(nc *NodeCtx, sec, stg, tile, gRow, nRows, chunkBytes int) float64
	// Process performs the real computation for the same rows over the
	// chunk bytes buf (aliasing in-core memory, or a disk chunk that the
	// executor writes back unless the variable is read-only).
	Process(nc *NodeCtx, sec, stg, tile, gRow, nRows int, buf []byte)
	// BoundaryMsg returns the payload this rank sends to its neighbour in
	// direction dir (-1 up the chain, +1 down) for the given section and
	// tile: exactly the section's MsgBytesPerNeighbor bytes. Pipelined
	// sections only use dir=+1.
	BoundaryMsg(nc *NodeCtx, sec, tile, dir int) []byte
	// OnBoundary delivers a received boundary payload.
	OnBoundary(nc *NodeCtx, sec, tile, dir int, data []byte)
	// ReduceVal returns this rank's contribution to the section-ending
	// reduction — ReduceBytes/8 values; OnReduce receives the combined
	// result.
	ReduceVal(nc *NodeCtx, sec int) []float64
	OnReduce(nc *NodeCtx, sec int, vals []float64)
}

// App couples a program IR with a State factory.
type App struct {
	Prog *program.Program
	// NewState builds rank-local state; it must be deterministic in
	// (rank, dist) so actual runs are reproducible.
	NewState func(nc *NodeCtx) State
}

// NodeCtx is the executor's per-rank context, visible to application
// kernels.
type NodeCtx struct {
	R     *mpi.Rank
	Prog  *program.Program
	Dist  dist.Distribution
	Start int // first global row owned
	Count int // rows owned
	Iter  int // current iteration
	// InCore holds memory-resident local arrays keyed by variable name,
	// laid out tile-major (the on-disk layout).
	InCore map[string][]byte

	env     *runEnv
	state   State
	plan    map[string]memsim.Layout
	jack    *mpijack.Jack
	rec     *mpijack.Recorder
	tr      *trace.Trace
	mode    Mode
	actIdx  int   // index in active-node list, -1 if inactive
	actives []int // ranks with non-zero work
}

// ActiveIndex returns this rank's position among active (non-empty)
// ranks, or -1.
func (nc *NodeCtx) ActiveIndex() int { return nc.actIdx }

// ActivePeer returns the rank at active position i.
func (nc *NodeCtx) ActivePeer(i int) int { return nc.actives[i] }

// ActiveCount returns how many ranks own work.
func (nc *NodeCtx) ActiveCount() int { return len(nc.actives) }

// Layout returns the runtime residency layout for variable v.
func (nc *NodeCtx) Layout(v string) memsim.Layout { return nc.plan[v] }

// Result summarises one executed run.
type Result struct {
	// NodeTimes[p] is rank p's virtual finish time measured from the
	// post-setup barrier (compulsory reads and data placement excluded,
	// matching the model's steady-state scope).
	NodeTimes []float64 //mheta:units seconds
	// Time is the run's wall time: max over NodeTimes.
	Time float64 //mheta:units seconds
	// PerIteration is Time divided by the iteration count.
	PerIteration float64 //mheta:units seconds
	// Recorders holds each rank's instrumented measurements
	// (ModeInstrument only).
	Recorders []*mpijack.Recorder
}

// Options configure a run.
type Options struct {
	Mode Mode
	// Iterations overrides the program's iteration count (0 keeps it).
	// ModeInstrument always runs exactly one iteration.
	Iterations int
	// Trace, when non-nil, collects per-rank timelines (sections, I/O,
	// blocked time). Plain runs only — ModeInstrument owns the profiler
	// slot for MPI-Jack, and Run rejects a trace there.
	Trace *trace.Trace
	// EventStats, when non-nil, receives the scheduler counters after
	// the run (dispatches, messages, parks — the events/sec numerator of
	// the scale benchmarks).
	EventStats *sched.Stats
	// Numerics runs the data plane as well: datasets are materialised on
	// disk, State.Process computes real values, and messages carry the
	// applications' payloads, checked against the sizes the IR declares.
	// Off (the default), a run only keeps time, which is all that
	// clocks, traces and recorders depend on.
	Numerics bool
}

// runEnv is one run's precomputed setup and per-rank results.
type runEnv struct {
	w          *mpi.World
	app        *App
	d          dist.Distribution
	opts       Options
	iters      int
	actives    []int
	actIdx     []int // actIdx[p]: position of rank p in actives, -1 if inactive
	startOf    []int // startOf[p]: first global row of rank p (prefix sums of d)
	contention float64
	recs       []*mpijack.Recorder
	starts     []float64
	ends       []float64
	// errs[p] is the first data-plane contract violation on rank p.
	errs []error
}

// Run executes app under distribution d on world w.
func Run(w *mpi.World, app *App, d dist.Distribution, opts Options) (Result, error) {
	env, err := prepare(w, app, d, opts)
	if err != nil {
		return Result{}, err
	}
	if err := env.runEvent(); err != nil {
		return Result{}, err
	}
	for _, err := range env.errs {
		if err != nil {
			return Result{}, err
		}
	}
	return env.result(), nil
}

// prepare validates inputs and computes everything the ranks share:
// iteration count, active ranks (with an O(1) per-rank index, not an
// O(n) scan per rank), row prefix sums, and shared-disk contention.
func prepare(w *mpi.World, app *App, d dist.Distribution, opts Options) (*runEnv, error) {
	if err := app.Prog.Validate(); err != nil {
		return nil, err
	}
	if len(d) != w.Size() {
		return nil, fmt.Errorf("exec: distribution for %d nodes on a %d-node world", len(d), w.Size())
	}
	if err := d.Validate(app.Prog.GlobalElems()); err != nil {
		return nil, err
	}
	if opts.Mode == ModeInstrument && opts.Trace != nil {
		return nil, fmt.Errorf("exec: Options.Trace is for plain runs; the instrumented iteration's profiler slot belongs to MPI-Jack")
	}
	iters := app.Prog.Iterations
	if opts.Iterations > 0 {
		iters = opts.Iterations
	}
	if opts.Mode == ModeInstrument {
		iters = 1
	}
	for _, s := range app.Prog.Sections {
		if s.MsgBytesPerNeighbor < 0 || s.ReduceBytes < 0 || s.ReduceBytes%8 != 0 {
			return nil, fmt.Errorf("exec: program %q section %q: MsgBytesPerNeighbor %d, ReduceBytes %d: sizes must be non-negative and reductions whole float64s",
				app.Prog.Name, s.Name, s.MsgBytesPerNeighbor, s.ReduceBytes)
		}
	}

	n := w.Size()
	env := &runEnv{
		w:          w,
		app:        app,
		d:          d,
		opts:       opts,
		iters:      iters,
		actIdx:     make([]int, n),
		startOf:    make([]int, n),
		contention: 1.0,
		recs:       make([]*mpijack.Recorder, n),
		starts:     make([]float64, n),
		ends:       make([]float64, n),
		errs:       make([]error, n),
	}
	row := 0
	for p, wk := range d {
		env.startOf[p] = row
		row += wk
		env.actIdx[p] = -1
		if wk > 0 {
			env.actIdx[p] = len(env.actives)
			env.actives = append(env.actives, p)
		}
	}

	// Shared-disk contention (§3.2 extension): each of k concurrently
	// streaming nodes sees the global disk k× slower. k is computed from
	// the same residency rules the runtime applies, so it is
	// deterministic and known to all ranks.
	if w.Spec().SharedDisk {
		env.contention = SharedDiskContention(w.Spec(), app.Prog, d, opts.Mode == ModeInstrument)
	}
	return env, nil
}

// setupRank builds rank r's NodeCtx, wires profilers and disk modes,
// initialises application state (or, timing only, reserves the dataset's
// extents), and performs the compulsory in-core loads — everything that
// happens before the aligning barrier. All of it is rank-local (Init and
// loadInCore only touch the rank's own clock and disk), so it never
// parks.
func (env *runEnv) setupRank(r *mpi.Rank) *NodeCtx {
	p := r.Rank()
	nc := &NodeCtx{
		R:       r,
		Prog:    env.app.Prog,
		Dist:    env.d,
		Start:   env.startOf[p],
		Count:   env.d[p],
		InCore:  make(map[string][]byte),
		env:     env,
		mode:    env.opts.Mode,
		actIdx:  env.actIdx[p],
		actives: env.actives,
	}
	if env.opts.Mode == ModeInstrument {
		nc.jack = mpijack.New()
		nc.rec = mpijack.NewRecorder(p)
		nc.rec.Attach(nc.jack)
		r.SetProfiler(nc.jack)
		r.Disk().SetMode(disksim.ModeInstrument)
		env.recs[p] = nc.rec
	} else {
		if env.opts.Trace != nil {
			nc.tr = env.opts.Trace
			r.SetProfiler(&trace.Collector{T: env.opts.Trace, Rank: p})
		} else {
			r.SetProfiler(nil)
		}
		r.Disk().SetMode(disksim.ModeNormal)
	}

	r.Disk().SetContention(env.contention)
	nc.state = env.app.NewState(nc)
	if env.opts.Numerics {
		nc.state.Init(nc)
	} else if nc.Count > 0 {
		for _, v := range nc.Prog.DistributedVars() {
			r.Disk().Reserve(v.Name, int(int64(nc.Count)*v.ElemBytes))
		}
	}
	nc.computeResidency()
	nc.loadInCore()
	return nc
}

// result assembles the run's Result.
func (env *runEnv) result() Result {
	n := env.w.Size()
	res := Result{NodeTimes: make([]float64, n), Recorders: env.recs}
	start := 0.0
	for _, s := range env.starts {
		if s > start {
			start = s
		}
	}
	for p := range env.ends {
		res.NodeTimes[p] = env.ends[p] - start
		if res.NodeTimes[p] > res.Time {
			res.Time = res.NodeTimes[p]
		}
	}
	res.PerIteration = res.Time / float64(env.iters)
	return res
}

// SharedDiskContention returns the number of ranks that stream at least
// one variable out of core under d — the bandwidth-sharing factor of the
// global-disk extension. In instrument mode all active ranks stream
// (forced I/O, §4.1.1), so the factor is the active count.
func SharedDiskContention(spec cluster.Spec, prog *program.Program, d dist.Distribution, instrumentMode bool) float64 {
	k := 0
	for p := range spec.Nodes {
		if d[p] == 0 {
			continue
		}
		if instrumentMode {
			if len(prog.DistributedVars()) > 0 {
				k++
			}
			continue
		}
		varBytes := make(map[string]int64)
		elemSize := make(map[string]int64)
		for _, v := range prog.DistributedVars() {
			varBytes[v.Name] = int64(d[p]) * v.ElemBytes
			elemSize[v.Name] = v.ElemBytes
		}
		plan := memsim.PlanGreedy(memsim.Budget{Capacity: spec.Nodes[p].MemoryBytes}, varBytes, elemSize)
		for _, l := range plan {
			if !l.InCore {
				k++
				break
			}
		}
	}
	if k < 1 {
		return 1
	}
	return float64(k)
}

// computeResidency runs the greedy (runtime-true) residency planner; in
// instrument mode every distributed variable is then forced out of core so
// all nodes measure I/O latencies for all variables (§4.1.1: "all nodes
// are forced to perform I/O during the instrumented execution for any
// distributed variables").
func (nc *NodeCtx) computeResidency() {
	varBytes := make(map[string]int64)
	elemSize := make(map[string]int64)
	for _, v := range nc.Prog.DistributedVars() {
		varBytes[v.Name] = int64(nc.Count) * v.ElemBytes
		elemSize[v.Name] = v.ElemBytes
	}
	budget := memsim.Budget{Capacity: nc.R.MemoryBytes()}
	nc.plan = memsim.PlanGreedy(budget, varBytes, elemSize)
	if nc.mode != ModeInstrument {
		return
	}
	for name, l := range nc.plan {
		if !l.InCore || l.OCLABytes == 0 {
			continue
		}
		es := elemSize[name]
		// Split the local array into two chunks so prefetching stages
		// exhibit at least one issue/overlap window to measure.
		half := memsim.CeilDiv(l.OCLABytes, 2)
		half += (es - half%es) % es
		if half < es {
			half = es
		}
		if half >= l.OCLABytes {
			// One-element arrays: a single forced read still measures lr.
			nc.plan[name] = memsim.Layout{Variable: name, OCLABytes: l.OCLABytes, ICLABytes: l.OCLABytes, Passes: 1, InCore: false}
			continue
		}
		nc.plan[name] = memsim.Layout{
			Variable:  name,
			OCLABytes: l.OCLABytes,
			ICLABytes: half,
			Passes:    int(memsim.CeilDiv(l.OCLABytes, half)),
			InCore:    false,
		}
	}
}

// loadInCore performs the compulsory read of each in-core local array
// into memory — once, before the iteration loop, so steady-state
// iterations incur no I/O for them (§3.1).
func (nc *NodeCtx) loadInCore() {
	for _, v := range nc.Prog.DistributedVars() {
		l, ok := nc.plan[v.Name]
		if !ok || !l.InCore || nc.Count == 0 {
			continue
		}
		data := nc.R.FileRead(v.Name, 0, int(int64(nc.Count)*v.ElemBytes))
		nc.InCore[v.Name] = data
	}
}

// flushInCore writes memory-resident local arrays back to disk after the
// measured region — the program's terminal output write, so post-run
// verification sees final values whether a variable lived in or out of
// core. The flush is untimed: it is outside the iterative phase both the
// emulator and the model measure, so timing-only runs skip it.
func (nc *NodeCtx) flushInCore() {
	if !nc.env.opts.Numerics {
		return
	}
	for _, v := range nc.Prog.DistributedVars() {
		if v.ReadOnly {
			continue
		}
		if data, ok := nc.InCore[v.Name]; ok {
			nc.R.Disk().Store(v.Name, data)
		}
	}
}
