package exec

// The event engine: every rank is an explicit state machine interpreted
// by a single driver goroutine that dispatches from internal/sched's
// event heap (DESIGN.md §5.13).
//
// The machine's program counter marks exactly the points where a rank
// can block on another rank — the receive sites of iteration.go plus
// the collectives — and nothing else. All other work (tiles, stages,
// chunk loops, prefetch waits, sends) is rank-local in this runtime, so
// the interpreter reuses iteration.go's own methods verbatim for those
// segments; the only re-derived control flow is the skeleton around the
// park points, kept line-for-line parallel with runIteration /
// runPipelineSection / runEndComm. That is the equivalence argument:
// identical per-rank op order + identical message matching ⇒ identical
// clocks, traces, and recorders, whatever order the heap dispatches
// ranks in.

import (
	"fmt"

	"mheta/internal/mpi"
	"mheta/internal/program"
	"mheta/internal/sched"
	"mheta/internal/trace"
	"mheta/internal/vclock"
)

// evPC is the interpreter's program counter: one value per park-capable
// region of a rank's program.
type evPC int

const (
	pcSetup evPC = iota
	pcBarrier
	pcSectionStart
	pcPipeTile
	pcPipeRecv
	pcNNRecvLeft
	pcNNRecvRight
	pcReduce
	pcSectionEnd
	pcFinish
	pcDone
)

// evRank interprets one rank's program between park points.
type evRank struct {
	env *runEnv
	r   *mpi.Rank
	nc  *NodeCtx

	pc       evPC
	sec      int
	tile     int
	secStart vclock.Time

	barrier *mpi.BarrierSM
	allred  *mpi.AllreduceSM
	recv    *mpi.RecvOp
}

// runEvent drives all ranks from one scheduler until every rank
// finishes. Every rank starts ready at virtual time zero (clocks were
// just reset), exactly where the goroutine engine spawns them.
func (env *runEnv) runEvent() error {
	n := env.w.Size()
	s := sched.New(n)
	env.w.ResetClocks()
	env.w.BindScheduler(s)
	defer env.w.UnbindScheduler()

	machines := make([]*evRank, n)
	for p := 0; p < n; p++ {
		machines[p] = &evRank{env: env, r: env.w.Rank(p)}
		s.Ready(p, 0)
	}
	remaining := n
	for remaining > 0 {
		p, ok := s.Next()
		if !ok {
			// Unreachable for well-formed programs: matching is
			// deterministic and the goroutine core would deadlock the Go
			// runtime on the same input. Report instead of hanging.
			return fmt.Errorf("exec: event engine deadlock with %d ranks unfinished: %s", remaining, s.DumpState())
		}
		if stepRank(machines[p]) {
			remaining--
		}
	}
	if env.opts.EventStats != nil {
		*env.opts.EventStats = s.Stats()
	}
	return nil
}

// stepRank resumes one rank, converting an application panic into the
// same "mpi: rank %d panicked" report the goroutine core produces.
func stepRank(m *evRank) (done bool) {
	defer func() {
		if p := recover(); p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", m.r.Rank(), p))
		}
	}()
	return m.step()
}

// step runs the rank forward until it parks (false) or finishes (true).
// Each case mirrors the corresponding goroutine-core code; comments
// name the original.
func (m *evRank) step() bool {
	for {
		switch m.pc {
		case pcSetup:
			// runGoroutine: setupRank + the aligning barrier.
			m.nc = m.env.setupRank(m.r)
			m.barrier = &mpi.BarrierSM{Tag: 1 << 16}
			m.pc = pcBarrier

		case pcBarrier:
			if !m.barrier.Step(m.r) {
				return false
			}
			m.barrier = nil
			m.env.starts[m.r.Rank()] = float64(m.r.Now())
			m.nc.Iter = 0
			m.sec = 0
			m.pc = pcSectionStart

		case pcSectionStart:
			// runIteration's section loop, flattened across iterations.
			if m.sec >= len(m.nc.Prog.Sections) {
				m.nc.Iter++
				if m.nc.Iter >= m.env.iters {
					m.pc = pcFinish
					continue
				}
				m.sec = 0
			}
			s := &m.nc.Prog.Sections[m.sec]
			if m.nc.jack != nil {
				m.nc.jack.EnterSection(m.sec)
			}
			m.secStart = m.r.Now()
			switch s.Comm {
			case program.CommPipeline:
				// runPipelineSection: inactive ranks skip the section body.
				if m.nc.Count == 0 {
					m.pc = pcSectionEnd
					continue
				}
				m.tile = 0
				m.pc = pcPipeTile
			default:
				m.nc.runTiles(m.sec, s) // rank-local: reused verbatim
				// runEndComm:
				switch s.Comm {
				case program.CommNone:
					m.pc = pcSectionEnd
				case program.CommNearestNeighbor:
					if m.nc.Count == 0 {
						m.pc = pcSectionEnd
						continue
					}
					// Send left, send right, receive left, receive right —
					// the order the model's recurrence mirrors.
					i := m.nc.actIdx
					tag := sectionTag(m.sec)
					if i > 0 {
						m.r.Send(m.nc.actives[i-1], tag, m.nc.boundaryMsg(m.sec, 0, -1))
					}
					if i < len(m.nc.actives)-1 {
						m.r.Send(m.nc.actives[i+1], tag, m.nc.boundaryMsg(m.sec, 0, +1))
					}
					m.pc = pcNNRecvLeft
				case program.CommReduction:
					m.allred = &mpi.AllreduceSM{Tag: sectionTag(m.sec), Op: mpi.OpSum, Vals: m.nc.reduceVal(m.sec)}
					m.pc = pcReduce
				default:
					panic(fmt.Sprintf("exec: unsupported comm pattern %v", s.Comm))
				}
			}

		case pcPipeTile:
			// runPipelineSection's tile loop head.
			s := &m.nc.Prog.Sections[m.sec]
			if m.tile >= s.Tiles {
				m.pc = pcSectionEnd
				continue
			}
			if m.nc.jack != nil {
				m.nc.jack.EnterTile(m.tile)
			}
			if m.nc.actIdx > 0 {
				m.recv = &mpi.RecvOp{Src: m.nc.actives[m.nc.actIdx-1], Tag: sectionTag(m.sec)}
				m.pc = pcPipeRecv
				continue
			}
			m.pipeBody(s)

		case pcPipeRecv:
			data, ok := m.r.TryRecv(m.recv)
			if !ok {
				return false
			}
			m.recv = nil
			m.nc.onBoundary(m.sec, m.tile, -1, data)
			m.pipeBody(&m.nc.Prog.Sections[m.sec])
			m.pc = pcPipeTile

		case pcNNRecvLeft:
			i := m.nc.actIdx
			if i > 0 {
				if m.recv == nil {
					m.recv = &mpi.RecvOp{Src: m.nc.actives[i-1], Tag: sectionTag(m.sec)}
				}
				data, ok := m.r.TryRecv(m.recv)
				if !ok {
					return false
				}
				m.recv = nil
				m.nc.onBoundary(m.sec, 0, -1, data)
			}
			m.pc = pcNNRecvRight

		case pcNNRecvRight:
			i := m.nc.actIdx
			if i < len(m.nc.actives)-1 {
				if m.recv == nil {
					m.recv = &mpi.RecvOp{Src: m.nc.actives[i+1], Tag: sectionTag(m.sec)}
				}
				data, ok := m.r.TryRecv(m.recv)
				if !ok {
					return false
				}
				m.recv = nil
				m.nc.onBoundary(m.sec, 0, +1, data)
			}
			m.pc = pcSectionEnd

		case pcReduce:
			if !m.allred.Step(m.r) {
				return false
			}
			m.nc.onReduce(m.sec, m.allred.Result())
			m.allred = nil
			m.pc = pcSectionEnd

		case pcSectionEnd:
			// runIteration's section epilogue.
			if m.nc.tr != nil {
				m.nc.tr.Add(trace.Span{
					Rank:  m.r.Rank(),
					Kind:  trace.SpanSection,
					Label: fmt.Sprintf("S%d", m.sec),
					Start: m.secStart,
					End:   m.r.Now(),
				})
			}
			if m.nc.jack != nil {
				m.nc.jack.LeaveSection()
			}
			m.sec++
			m.pc = pcSectionStart

		case pcFinish:
			m.env.ends[m.r.Rank()] = float64(m.r.Now())
			m.nc.flushInCore()
			m.pc = pcDone
			return true

		default:
			panic(fmt.Sprintf("exec: step on rank %d in state %d", m.r.Rank(), m.pc))
		}
	}
}

// pipeBody is the non-blocking tail of one pipeline tile: stages, then
// the downstream send, then advance to the next tile.
func (m *evRank) pipeBody(s *program.Section) {
	for sti := range s.Stages {
		m.nc.runStage(m.sec, sti, m.tile, s)
	}
	if m.nc.actIdx < len(m.nc.actives)-1 {
		m.r.Send(m.nc.actives[m.nc.actIdx+1], sectionTag(m.sec), m.nc.boundaryMsg(m.sec, m.tile, +1))
	}
	m.tile++
}
