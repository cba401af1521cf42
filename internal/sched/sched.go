// Package sched is the discrete-event core of the emulator: a central
// scheduler that dispatches ranks from an event heap instead of running
// one goroutine per rank.
//
// The runtime it serves (internal/mpi + internal/exec) has exactly one
// cross-rank blocking primitive — Recv — and every other operation
// (compute, disk I/O, prefetch waits, sends) advances only the calling
// rank's own clock. A rank can therefore be driven as a resumable state
// machine that runs straight-line until it needs a message that has not
// been sent yet, parks, and is woken by the matching Send. Emulating a
// rank then costs a heap push/pop per park/resume rather than a
// goroutine, which is what lets the emulator reach 10k+ ranks in
// seconds (DESIGN.md §5.13).
//
// Determinism contract: dispatch order is a pure function of the event
// set. The heap is keyed by (virtual time, rank, seq) — seq is a global
// push counter that only breaks ties between equal (time, rank) keys,
// which cannot occur while each rank has at most one pending event, so
// dispatch order is independent of insertion order. Message matching is
// per-(src,dst) FIFO with tag filtering, as in MPI. The scheduler never
// consults wall time or ambient randomness.
package sched

import (
	"fmt"
	"sort"

	"mheta/internal/vclock"
)

// AnyTag matches any message tag in TryRecv and Park (mirrors
// mpi.AnyTag; duplicated here so sched does not import mpi).
const AnyTag = -1

// Msg is one in-flight message between two ranks. Bytes is its size,
// the only property virtual time depends on; Data is its payload, nil
// for a size-only message. Arrival is the virtual time at which the
// message becomes available to the receiver.
type Msg struct {
	Tag     int
	Bytes   int //mheta:units bytes
	Data    []byte
	Arrival vclock.Time //mheta:units seconds
}

// Stats counts scheduler activity over one run. Events is the number of
// rank dispatches (heap pops); Sends, Parks and Wakes count message
// deliveries, blocked receives and park/wake pairs. MaxHeap is the
// high-water mark of the event heap.
type Stats struct {
	Events  uint64
	Sends   uint64
	Parks   uint64
	Wakes   uint64
	MaxHeap int
}

// item is one pending dispatch: resume rank at virtual time t. seq is
// the tertiary tie-break (see the package comment).
type item struct {
	t    vclock.Time //mheta:units seconds
	rank int32
	seq  uint64
}

// less is the heap order: earliest time first, then lowest rank, then
// insertion sequence.
func (a item) less(b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// queue is the FIFO of undelivered messages for one (src,dst) pair.
// head avoids O(n) slides on the common in-order pop.
type queue struct {
	msgs []Msg
	head int
}

func (q *queue) push(m Msg) { q.msgs = append(q.msgs, m) }

func (q *queue) len() int { return len(q.msgs) - q.head }

// pop removes and returns the first message matching tag (any message
// when tag == AnyTag), preserving FIFO order among the rest.
func (q *queue) pop(tag int) (Msg, bool) {
	for i := q.head; i < len(q.msgs); i++ {
		if tag != AnyTag && q.msgs[i].Tag != tag {
			continue
		}
		m := q.msgs[i]
		if i == q.head {
			q.msgs[q.head] = Msg{}
			q.head++
			if q.head == len(q.msgs) {
				q.msgs = q.msgs[:0]
				q.head = 0
			}
		} else {
			copy(q.msgs[i:], q.msgs[i+1:])
			q.msgs[len(q.msgs)-1] = Msg{}
			q.msgs = q.msgs[:len(q.msgs)-1]
		}
		return m, true
	}
	return Msg{}, false
}

// park records why a rank is blocked: it wants a message from src with
// the given tag, and will resume at time t (its clock when it parked)
// once one is delivered.
type park struct {
	active bool
	src    int32
	tag    int
	t      vclock.Time //mheta:units seconds
}

// Scheduler drives n ranks from a single event heap. It is not safe for
// concurrent use: exactly one driver goroutine owns it, which is the
// point — cross-rank coupling happens through message timestamps, not
// the host scheduler.
type Scheduler struct {
	n      int
	heap   []item
	seq    uint64
	queues map[uint64]*queue // lazily created per (src,dst) pair
	parked []park
	inHeap []bool
	// last[r] is rank r's most recent dispatch (or park) time; virtual
	// time travel — re-readying a rank earlier than it already ran — is
	// a driver bug and panics.
	last  []vclock.Time //mheta:units seconds
	stats Stats
}

// New returns a scheduler for n ranks with an empty event heap.
func New(n int) *Scheduler {
	if n <= 0 {
		panic(fmt.Sprintf("sched: invalid rank count %d", n))
	}
	return &Scheduler{
		n:      n,
		queues: make(map[uint64]*queue),
		parked: make([]park, n),
		inHeap: make([]bool, n),
		last:   make([]vclock.Time, n),
	}
}

// Reset returns the scheduler to its just-built state — nothing queued,
// parked or in flight, counters at zero — reusing its per-rank arrays so
// a world that runs again allocates no new scheduler.
func (s *Scheduler) Reset() {
	s.heap = s.heap[:0]
	s.seq = 0
	clear(s.queues)
	clear(s.parked)
	clear(s.inHeap)
	clear(s.last)
	s.stats = Stats{}
}

func pairKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// Ready schedules rank r to be dispatched at virtual time t.
//
//mheta:units seconds t
func (s *Scheduler) Ready(r int, t vclock.Time) {
	if r < 0 || r >= s.n {
		panic(fmt.Sprintf("sched: Ready for rank %d of %d", r, s.n))
	}
	if s.inHeap[r] {
		panic(fmt.Sprintf("sched: rank %d readied twice", r))
	}
	if s.parked[r].active {
		panic(fmt.Sprintf("sched: rank %d readied while parked", r))
	}
	if t < s.last[r] {
		panic(fmt.Sprintf("sched: virtual time travel: rank %d readied at %v before %v", r, t, s.last[r]))
	}
	s.inHeap[r] = true
	s.push(item{t: t, rank: int32(r), seq: s.seq})
	s.seq++
	if len(s.heap) > s.stats.MaxHeap {
		s.stats.MaxHeap = len(s.heap)
	}
}

// Next pops the earliest pending dispatch. ok is false when the heap is
// empty — the run is complete, or deadlocked if ranks remain parked.
func (s *Scheduler) Next() (rank int, ok bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	it := s.pop()
	r := int(it.rank)
	s.inHeap[r] = false
	s.last[r] = it.t
	s.stats.Events++
	return r, true
}

// Send delivers m on the src→dst link, waking dst if it is parked on a
// matching (src, tag).
func (s *Scheduler) Send(src, dst int, m Msg) {
	if dst < 0 || dst >= s.n {
		panic(fmt.Sprintf("sched: Send to rank %d of %d", dst, s.n))
	}
	key := pairKey(src, dst)
	q := s.queues[key]
	if q == nil {
		q = &queue{}
		s.queues[key] = q
	}
	q.push(m)
	s.stats.Sends++
	if p := &s.parked[dst]; p.active && int(p.src) == src && (p.tag == AnyTag || p.tag == m.Tag) {
		p.active = false
		s.stats.Wakes++
		s.Ready(dst, p.t)
	}
}

// TryRecv removes and returns the first undelivered message matching
// tag on the src→dst link (FIFO among matches). It does not park; a
// driver that gets ok == false parks the receiver explicitly.
func (s *Scheduler) TryRecv(src, dst, tag int) (Msg, bool) {
	q := s.queues[pairKey(src, dst)]
	if q == nil {
		return Msg{}, false
	}
	return q.pop(tag)
}

// Park blocks rank r until a message from src with the given tag is
// delivered; r resumes at time t (its clock when it parked — parking
// itself consumes no virtual time).
//
//mheta:units seconds t
func (s *Scheduler) Park(r, src, tag int, t vclock.Time) {
	if s.inHeap[r] {
		panic(fmt.Sprintf("sched: rank %d parked while ready", r))
	}
	if s.parked[r].active {
		panic(fmt.Sprintf("sched: rank %d parked twice", r))
	}
	if t < s.last[r] {
		panic(fmt.Sprintf("sched: virtual time travel: rank %d parked at %v before %v", r, t, s.last[r]))
	}
	s.parked[r] = park{active: true, src: int32(src), tag: tag, t: t}
	s.last[r] = t
	s.stats.Parks++
}

// ParkedRanks returns the ranks currently blocked in a Recv, ascending —
// the deadlock report when Next runs dry with ranks unfinished.
func (s *Scheduler) ParkedRanks() []int {
	var out []int
	for r := range s.parked {
		if s.parked[r].active {
			out = append(out, r)
		}
	}
	return out
}

// PendingMessages returns the number of undelivered messages across all
// links (diagnostics; a clean run ends with zero).
func (s *Scheduler) PendingMessages() int {
	total := 0
	for _, q := range s.queues {
		total += q.len()
	}
	return total
}

// Stats returns the activity counters so far.
func (s *Scheduler) Stats() Stats { return s.stats }

// push and pop implement a classic binary min-heap over items; hand
// rolled (rather than container/heap) to avoid interface boxing on the
// hottest path of the event engine.
func (s *Scheduler) push(it item) {
	s.heap = append(s.heap, it)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heap[i].less(s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Scheduler) pop() item {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && s.heap[l].less(s.heap[min]) {
			min = l
		}
		if r < last && s.heap[r].less(s.heap[min]) {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
	return top
}

// DumpState renders the scheduler's blocking picture for deadlock
// errors: which ranks are parked on which (src, tag), and how many
// messages sit undelivered, with deterministic ordering.
func (s *Scheduler) DumpState() string {
	parked := s.ParkedRanks()
	out := fmt.Sprintf("%d parked", len(parked))
	limit := parked
	if len(limit) > 8 {
		limit = limit[:8]
	}
	for _, r := range limit {
		p := s.parked[r]
		out += fmt.Sprintf(" [rank %d ← src %d tag %d @%v]", r, p.src, p.tag, p.t)
	}
	if len(parked) > 8 {
		out += " …"
	}
	var keys []uint64
	for k, q := range s.queues {
		if q.len() > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out += fmt.Sprintf("; %d undelivered", s.PendingMessages())
	for i, k := range keys {
		if i == 8 {
			out += " …"
			break
		}
		out += fmt.Sprintf(" [%d→%d: %d]", k>>32, uint32(k), s.queues[k].len())
	}
	return out
}
