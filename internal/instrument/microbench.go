// Package instrument automates MHETA's parameter acquisition (§4.1):
// micro-benchmarks for the communication and disk constants, and the
// instrumented iteration — run under the base (Blk) distribution with
// MPI-Jack hooks attached, forced I/O, and the Figure 5 prefetch
// transform — from which the per-stage computation rates and per-variable
// I/O latencies are extracted.
package instrument

import (
	"encoding/binary"
	"math"

	"mheta/internal/core"
	"mheta/internal/mpi"
	"mheta/internal/vclock"
)

// Benchmark sizes: two points determine the fixed and per-byte parts of
// each linear cost. Chosen far apart so the slope estimate is stable
// under ±2% noise.
const (
	netSizeSmall  = 512
	netSizeLarge  = 1 << 16
	diskSizeSmall = 4096
	diskSizeLarge = 1 << 18
)

// linfit solves f(s) = a + b·s from two averaged samples, clamping both
// coefficients at zero (noise can produce slightly negative intercepts).
func linfit(s1, f1, s2, f2 float64) (a, b float64) {
	b = (f2 - f1) / (s2 - s1)
	a = f1 - b*s1
	if b < 0 {
		b = 0
	}
	if a < 0 {
		a = 0
	}
	return a, b
}

func stamp(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

func unstamp(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// recvProbe is a minimal profiler capturing the last receive's timing.
type recvProbe struct {
	start vclock.Time
	end   vclock.Time
	wait  vclock.Duration
}

func (p *recvProbe) Pre(ci *mpi.CallInfo) {}

func (p *recvProbe) Post(ci *mpi.CallInfo) {
	if ci.Kind == mpi.CallRecv {
		p.start, p.end, p.wait = ci.Start, ci.End, ci.Wait
	}
}

// recv completes a receive whose message has already been sent.
func recv(r *mpi.Rank, src, tag int) []byte {
	data, _ := r.TryRecv(&mpi.RecvOp{Src: src, Tag: tag})
	return data
}

// MicroBenchNet measures the network constants with timed exchanges
// between ranks 0 and 1 ("We use microbenchmarks to measure some basic
// communication costs, such as send and receive overheads and send
// latency per byte between nodes", §4.1). reps samples per size are
// averaged to smooth perturbation noise.
//
// Protocol per (size, rep): rank 1 sends a "ready" token and posts its
// receive; rank 0 consumes the token, sends the timed payload, and
// follows with a tiny message carrying the virtual timestamp at which the
// payload's send completed. Only the payload's size is timed, so it is
// sent size-only; the stamp carries data. On rank 1 the PMPI probe yields
// the receive's start, wait and end, from which the arrival time, the
// receive overhead or(m), and — against the sender's timestamp — the
// wire time all follow. The send overhead os(m) is timed directly on
// rank 0.
//
// Both ranks' operations are issued in that order from the caller: each
// receive comes after its matching send, so none ever waits for a
// message to exist, and virtual time (the receive's Wait) still
// accounts for rank 1 being ahead of the payload's arrival.
func MicroBenchNet(w *mpi.World, reps int) core.NetParams {
	if reps < 1 {
		reps = 1
	}
	const tagReady, tagData, tagStamp = 7001, 7002, 7003
	type avg struct{ os, or, wire float64 }
	results := make(map[int]avg, 2)

	r0, r1 := w.Rank(0), w.Rank(1)
	probe := &recvProbe{}
	r1.SetProfiler(probe)
	defer r1.SetProfiler(nil)
	for _, size := range []int{netSizeSmall, netSizeLarge} {
		var osSum, orSum, wireSum float64
		for rep := 0; rep < reps; rep++ {
			r1.Send(0, tagReady, stamp(0))
			recv(r0, 1, tagReady)
			t0 := r0.Now()
			r0.SendSize(1, tagData, size)
			se := r0.Now()
			osSum += float64(se - t0)
			r0.Send(1, tagStamp, stamp(float64(se)))

			recv(r1, 0, tagData)
			arrival := probe.start + vclock.Time(probe.wait)
			orSum += float64(probe.end - arrival)
			wireSum += float64(arrival) - unstamp(recv(r1, 0, tagStamp))
		}
		results[size] = avg{
			os:   osSum / float64(reps),
			or:   orSum / float64(reps),
			wire: wireSum / float64(reps),
		}
	}

	s1, s2 := float64(netSizeSmall), float64(netSizeLarge)
	var p core.NetParams
	p.SendFixed, p.SendPerByte = linfit(s1, results[netSizeSmall].os, s2, results[netSizeLarge].os)
	p.RecvFixed, p.RecvPerByte = linfit(s1, results[netSizeSmall].or, s2, results[netSizeLarge].or)
	p.WireFixed, p.WirePerByte = linfit(s1, results[netSizeSmall].wire, s2, results[netSizeLarge].wire)
	return p
}

// MicroBenchDisk measures each node's seek overheads Or and Ow — "they
// are measured and output as node-specific data" (§4.1.1) — and the
// prefetch issue overhead To, using timed reads and writes of a scratch
// extent at two sizes. Only the timings matter, so the scratch extent is
// size-only and every rank writes from one shared buffer.
func MicroBenchDisk(w *mpi.World, reps int) []core.DiskCal {
	if reps < 1 {
		reps = 1
	}
	cals := make([]core.DiskCal, w.Size())
	buf := make([]byte, diskSizeLarge)
	const scratch = "__mheta_scratch__"
	for p := range cals {
		r := w.Rank(p)
		r.Disk().Reserve(scratch, diskSizeLarge)
		readAvg := make(map[int]float64, 2)
		writeAvg := make(map[int]float64, 2)
		for _, size := range []int{diskSizeSmall, diskSizeLarge} {
			var rSum, wSum float64
			for rep := 0; rep < reps; rep++ {
				t0 := r.Now()
				r.FileRead(scratch, 0, size)
				rSum += float64(r.Now() - t0)
				t1 := r.Now()
				r.FileWrite(scratch, 0, buf[:size])
				wSum += float64(r.Now() - t1)
			}
			readAvg[size] = rSum / float64(reps)
			writeAvg[size] = wSum / float64(reps)
		}
		var issueSum float64
		for rep := 0; rep < reps; rep++ {
			t0 := r.Now()
			tag := r.FilePrefetchIssue(scratch, 0, diskSizeSmall)
			issueSum += float64(r.Now() - t0)
			r.FilePrefetchWait(scratch, tag)
		}
		s1, s2 := float64(diskSizeSmall), float64(diskSizeLarge)
		var c core.DiskCal
		c.ReadSeek, _ = linfit(s1, readAvg[diskSizeSmall], s2, readAvg[diskSizeLarge])
		c.WriteSeek, _ = linfit(s1, writeAvg[diskSizeSmall], s2, writeAvg[diskSizeLarge])
		c.IssueCost = issueSum / float64(reps)
		cals[p] = c
	}
	return cals
}
