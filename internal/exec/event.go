package exec

// The section skeleton: every rank is an explicit state machine that
// mpi.World.Run resumes from the world's event heap (DESIGN.md §5.13).
//
// The machine's program counter marks exactly the points where a rank
// can wait on another rank — the pipeline and nearest-neighbour
// receives, plus the collectives — and nothing else. All other work
// (tiles, stages, chunk loops, prefetch waits, sends) is rank-local in
// this runtime and runs straight through iteration.go's methods. Per-rank
// op order is fixed by this program and message matching is FIFO per
// link, so clocks, traces, and recorders do not depend on the order in
// which the heap dispatches ranks.

import (
	"fmt"

	"mheta/internal/mpi"
	"mheta/internal/program"
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

	// The park-capable ops, held by value and reinitialised for each
	// use so a run allocates none of them.
	barrier mpi.BarrierSM
	allred  mpi.AllreduceSM
	recv    mpi.RecvOp
}

// runEvent drives all ranks through World.Run until every rank
// finishes. Every rank starts ready at virtual time zero (clocks were
// just reset).
func (env *runEnv) runEvent() error {
	env.w.ResetClocks()
	machines := make([]evRank, env.w.Size())
	for p := range machines {
		machines[p] = evRank{env: env, r: env.w.Rank(p)}
	}
	if err := env.w.Run(func(r *mpi.Rank) bool { return machines[r.Rank()].step() }); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	if env.opts.EventStats != nil {
		*env.opts.EventStats = env.w.Stats()
	}
	return nil
}

// step runs the rank forward until it parks (false) or finishes (true).
func (m *evRank) step() bool {
	for {
		switch m.pc {
		case pcSetup:
			// Rank-local setup, then align all ranks before the measured
			// region.
			m.nc = m.env.setupRank(m.r)
			m.barrier = mpi.BarrierSM{Tag: 1 << 16}
			m.pc = pcBarrier

		case pcBarrier:
			if !m.barrier.Step(m.r) {
				return false
			}
			m.env.starts[m.r.Rank()] = float64(m.r.Now())
			m.nc.Iter = 0
			m.sec = 0
			m.pc = pcSectionStart

		case pcSectionStart:
			// The section loop, flattened across iterations: Figure 1's
			// sections, each with its tiles, stages, and closing
			// communication.
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
				// Pipelined (§4.2.2, the RNA structure): receive the
				// upstream boundary, process the tile's stages, forward
				// downstream. Inactive ranks skip the section body.
				if m.nc.Count == 0 {
					m.pc = pcSectionEnd
					continue
				}
				m.tile = 0
				m.pc = pcPipeTile
			default:
				m.nc.runTiles(m.sec, s)
				// The section-ending communication.
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
					if i > 0 {
						m.nc.sendBoundary(m.sec, 0, -1)
					}
					if i < len(m.nc.actives)-1 {
						m.nc.sendBoundary(m.sec, 0, +1)
					}
					m.recvBoundary(-1)
					m.pc = pcNNRecvLeft
				case program.CommReduction:
					m.allred = m.nc.reduction(m.sec)
					m.pc = pcReduce
				default:
					panic(fmt.Sprintf("exec: unsupported comm pattern %v", s.Comm))
				}
			}

		case pcPipeTile:
			// The pipeline's tile loop head.
			s := &m.nc.Prog.Sections[m.sec]
			if m.tile >= s.Tiles {
				m.pc = pcSectionEnd
				continue
			}
			if m.nc.jack != nil {
				m.nc.jack.EnterTile(m.tile)
			}
			if m.nc.actIdx > 0 {
				m.recvBoundary(-1)
				m.pc = pcPipeRecv
				continue
			}
			m.pipeBody(s)

		case pcPipeRecv:
			data, ok := m.r.TryRecv(&m.recv)
			if !ok {
				return false
			}
			m.nc.onBoundary(m.sec, m.tile, -1, data)
			m.pipeBody(&m.nc.Prog.Sections[m.sec])
			m.pc = pcPipeTile

		case pcNNRecvLeft:
			if m.nc.actIdx > 0 {
				data, ok := m.r.TryRecv(&m.recv)
				if !ok {
					return false
				}
				m.nc.onBoundary(m.sec, 0, -1, data)
			}
			m.recvBoundary(+1)
			m.pc = pcNNRecvRight

		case pcNNRecvRight:
			if m.nc.actIdx < len(m.nc.actives)-1 {
				data, ok := m.r.TryRecv(&m.recv)
				if !ok {
					return false
				}
				m.nc.onBoundary(m.sec, 0, +1, data)
			}
			m.pc = pcSectionEnd

		case pcReduce:
			if !m.allred.Step(m.r) {
				return false
			}
			m.nc.onReduce(m.sec, m.allred.Result())
			m.pc = pcSectionEnd

		case pcSectionEnd:
			// The section epilogue.
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
		m.nc.sendBoundary(m.sec, m.tile, +1)
	}
	m.tile++
}

// recvBoundary readies m.recv for the current section's boundary
// message from the active neighbour in direction dir. The neighbour
// need not exist; the receive states check before using the op.
func (m *evRank) recvBoundary(dir int) {
	m.recv = mpi.RecvOp{Tag: sectionTag(m.sec)}
	if j := m.nc.actIdx + dir; j >= 0 && j < len(m.nc.actives) {
		m.recv.Src = m.nc.actives[j]
	}
}
