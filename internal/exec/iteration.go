package exec

import (
	"fmt"

	"mheta/internal/memsim"
	"mheta/internal/mpi"
	"mheta/internal/program"
	"mheta/internal/vclock"
)

// Communication tags: one namespace per section, disjoint from the
// barrier tag used in Run and from the collectives' reserved space.
func sectionTag(sec int) int { return 1 + sec<<4 }

// runTiles executes the section's stage work (non-pipelined sections have
// exactly one tile).
func (nc *NodeCtx) runTiles(si int, s *program.Section) {
	if nc.Count == 0 {
		return
	}
	for k := 0; k < s.Tiles; k++ {
		if nc.jack != nil {
			nc.jack.EnterTile(k)
		}
		for sti := range s.Stages {
			nc.runStage(si, sti, k, s)
		}
	}
}

// runStage executes one stage within one tile: the ICLA loop over the
// streamed variable (synchronous, Figure 1 bottom; or prefetching,
// Figure 6), or a single in-memory pass when everything is in core.
func (nc *NodeCtx) runStage(si, sti, tile int, s *program.Section) {
	st := &s.Stages[sti]
	jack, rec := nc.jack, nc.rec
	var spanStart vclock.Time
	if jack != nil {
		jack.EnterStage(sti)
		spanStart = nc.R.Now()
	}

	v := nc.streamVar(st)
	if v == nil {
		// No streamed variable: pure in-memory computation over the
		// tile's rows.
		nc.process(si, sti, tile, nc.Start, nc.Count, nil)
	} else {
		layout := nc.plan[v.Name]
		if layout.InCore {
			buf := nc.inCoreTile(v, s.Tiles, tile)
			nc.process(si, sti, tile, nc.Start, nc.Count, buf)
		} else if st.Prefetch && nc.mode != ModeInstrument {
			nc.runChunksPrefetch(si, sti, tile, s, st, v, layout)
		} else if st.Prefetch {
			nc.runChunksPrefetchInstrumented(si, sti, tile, s, st, v, layout)
		} else {
			nc.runChunksSync(si, sti, tile, s, st, v, layout)
		}
	}

	if jack != nil {
		rec.RecordStageSpan(si, tile, sti, nc.R.Clock().Since(spanStart))
		jack.LeaveStage()
	}
}

// streamVar resolves the stage's streamed distributed variable, nil when
// the stage only touches in-core or replicated data (Run validated every
// name). The result points into Prog.Variables, so a stage resolves it
// without allocating.
func (nc *NodeCtx) streamVar(st *program.Stage) *program.Variable {
	for _, u := range st.Uses {
		for i := range nc.Prog.Variables {
			if v := &nc.Prog.Variables[i]; v.Name == u.Name && v.Distributed {
				return v
			}
		}
	}
	return nil
}

// inCoreTile returns the in-memory slice for tile k of an in-core
// variable. Local arrays are laid out tile-major so each tile's strip is
// contiguous, both on disk and in memory.
func (nc *NodeCtx) inCoreTile(v *program.Variable, tiles, k int) []byte {
	buf := nc.InCore[v.Name]
	if tiles == 1 {
		return buf
	}
	strip := v.ElemBytes / int64(tiles)
	tileBytes := strip * int64(nc.Count)
	return buf[int64(k)*tileBytes : int64(k+1)*tileBytes]
}

// chunkGeom computes the stage's chunking for tile k.
type chunkGeom struct {
	stream     memsim.Stream
	tileOffset int64 // byte offset of tile k's strip block on disk
}

func (nc *NodeCtx) chunkGeom(v *program.Variable, tiles, k int, layout memsim.Layout) chunkGeom {
	stream := memsim.StreamPlan(nc.Count, v.ElemBytes, layout.ICLABytes, tiles)
	return chunkGeom{
		stream:     stream,
		tileOffset: int64(k) * stream.StripBytes * int64(nc.Count),
	}
}

// runChunksSync is the original ICLA loop (Figure 6 left): read a chunk,
// process it, write it back.
func (nc *NodeCtx) runChunksSync(si, sti, tile int, s *program.Section, st *program.Stage, v *program.Variable, layout memsim.Layout) {
	g := nc.chunkGeom(v, s.Tiles, tile, layout)
	for c := 0; c < g.stream.ChunksPerTile; c++ {
		rowStart := c * g.stream.ChunkElems
		rows := g.stream.ChunkElems
		if rowStart+rows > nc.Count {
			rows = nc.Count - rowStart
		}
		off := g.tileOffset + int64(rowStart)*g.stream.StripBytes
		bytes := int(int64(rows) * g.stream.StripBytes)
		buf := nc.R.FileRead(v.Name, int(off), bytes)
		nc.process(si, sti, tile, nc.Start+rowStart, rows, buf)
		if !v.ReadOnly {
			nc.R.FileWrite(v.Name, int(off), buf)
		}
	}
}

// runChunksPrefetch is the unrolled loop of Figure 6 right: prefetch
// chunk c while processing chunk c−1, then wait and write back. The
// overlap between the in-flight read and the computation is what
// Equation 2's effective latency models.
func (nc *NodeCtx) runChunksPrefetch(si, sti, tile int, s *program.Section, st *program.Stage, v *program.Variable, layout memsim.Layout) {
	g := nc.chunkGeom(v, s.Tiles, tile, layout)
	nChunks := g.stream.ChunksPerTile
	chunk := func(c int) (off int64, rows int) {
		rowStart := c * g.stream.ChunkElems
		rows = g.stream.ChunkElems
		if rowStart+rows > nc.Count {
			rows = nc.Count - rowStart
		}
		return g.tileOffset + int64(rowStart)*g.stream.StripBytes, rows
	}
	off0, rows0 := chunk(0)
	prev := nc.R.FileRead(v.Name, int(off0), int(int64(rows0)*g.stream.StripBytes))
	prevOff, prevRows, prevRowStart := off0, rows0, 0
	for c := 1; c < nChunks; c++ {
		off, rows := chunk(c)
		tag := nc.R.FilePrefetchIssue(v.Name, int(off), int(int64(rows)*g.stream.StripBytes))
		nc.process(si, sti, tile, nc.Start+prevRowStart, prevRows, prev)
		cur := nc.R.FilePrefetchWait(v.Name, tag)
		if !v.ReadOnly {
			nc.R.FileWrite(v.Name, int(prevOff), prev)
		}
		prev, prevOff, prevRows, prevRowStart = cur, off, rows, c*g.stream.ChunkElems
	}
	nc.process(si, sti, tile, nc.Start+prevRowStart, prevRows, prev)
	if !v.ReadOnly {
		nc.R.FileWrite(v.Name, int(prevOff), prev)
	}
}

// runChunksPrefetchInstrumented runs the same unrolled loop under the
// Figure 5 transform (issues block, waits are no-ops — the disk is already
// in ModeInstrument) and measures the overlap computation Tov between each
// issue's return and the corresponding wait, attributing it per element.
func (nc *NodeCtx) runChunksPrefetchInstrumented(si, sti, tile int, s *program.Section, st *program.Stage, v *program.Variable, layout memsim.Layout) {
	g := nc.chunkGeom(v, s.Tiles, tile, layout)
	nChunks := g.stream.ChunksPerTile
	chunk := func(c int) (off int64, rows int) {
		rowStart := c * g.stream.ChunkElems
		rows = g.stream.ChunkElems
		if rowStart+rows > nc.Count {
			rows = nc.Count - rowStart
		}
		return g.tileOffset + int64(rowStart)*g.stream.StripBytes, rows
	}
	off0, rows0 := chunk(0)
	prev := nc.R.FileRead(v.Name, int(off0), int(int64(rows0)*g.stream.StripBytes))
	prevOff, prevRows, prevRowStart := off0, rows0, 0
	for c := 1; c < nChunks; c++ {
		off, rows := chunk(c)
		tag := nc.R.FilePrefetchIssue(v.Name, int(off), int(int64(rows)*g.stream.StripBytes))
		t0 := nc.R.Now()
		nc.process(si, sti, tile, nc.Start+prevRowStart, prevRows, prev)
		tov := nc.R.Clock().Since(t0)
		nc.rec.RecordOverlap(si, tile, sti, v.Name, tov, prevRows)
		cur := nc.R.FilePrefetchWait(v.Name, tag)
		if !v.ReadOnly {
			nc.R.FileWrite(v.Name, int(prevOff), prev)
		}
		prev, prevOff, prevRows, prevRowStart = cur, off, rows, c*g.stream.ChunkElems
	}
	nc.process(si, sti, tile, nc.Start+prevRowStart, prevRows, prev)
	if !v.ReadOnly {
		nc.R.FileWrite(v.Name, int(prevOff), prev)
	}
}

// process charges the work of rows [gRow, gRow+nRows) of a stage and, in
// numerics runs, computes them over buf. Both planes take this one path,
// so a timing-only run issues exactly the numerics run's clock charges.
func (nc *NodeCtx) process(si, sti, tile, gRow, nRows int, buf []byte) {
	work := nc.state.Work(nc, si, sti, tile, gRow, nRows, len(buf))
	if nc.env.opts.Numerics {
		nc.state.Process(nc, si, sti, tile, gRow, nRows, buf)
	}
	nc.compute(work)
}

// sendBoundary sends the section's boundary message to the active
// neighbour in direction dir: the application's payload in numerics
// runs, checked against the declared MsgBytesPerNeighbor, and a
// size-only message of that size otherwise.
func (nc *NodeCtx) sendBoundary(si, tile, dir int) {
	dst, tag := nc.actives[nc.actIdx+dir], sectionTag(si)
	want := nc.Prog.Sections[si].MsgBytesPerNeighbor
	if !nc.env.opts.Numerics {
		nc.R.SendSize(dst, tag, int(want))
		return
	}
	msg := nc.state.BoundaryMsg(nc, si, tile, dir)
	if int64(len(msg)) != want {
		nc.fail(fmt.Errorf("exec: program %q section %d: rank %d sent a %d-byte boundary message, the IR declares MsgBytesPerNeighbor %d",
			nc.Prog.Name, si, nc.R.Rank(), len(msg), want))
	}
	nc.R.Send(dst, tag, msg)
}

// onBoundary delivers a received boundary payload (numerics runs only).
func (nc *NodeCtx) onBoundary(si, tile, dir int, data []byte) {
	if nc.env.opts.Numerics {
		nc.state.OnBoundary(nc, si, tile, dir, data)
	}
}

// reduction is the section-ending allreduce of the declared ReduceBytes:
// over the application's contribution in numerics runs, checked against
// that size, and size-only otherwise.
func (nc *NodeCtx) reduction(si int) mpi.AllreduceSM {
	want := nc.Prog.Sections[si].ReduceBytes
	sm := mpi.AllreduceSM{Tag: sectionTag(si), Op: mpi.OpSum, Len: int(want / 8)}
	if !nc.env.opts.Numerics {
		return sm
	}
	sm.Vals = nc.state.ReduceVal(nc, si)
	if 8*int64(len(sm.Vals)) != want {
		nc.fail(fmt.Errorf("exec: program %q section %d: rank %d contributed %d reduction values (%d bytes), the IR declares ReduceBytes %d",
			nc.Prog.Name, si, nc.R.Rank(), len(sm.Vals), 8*len(sm.Vals), want))
	}
	return sm
}

// onReduce delivers a reduction result (numerics runs only).
func (nc *NodeCtx) onReduce(si int, vals []float64) {
	if nc.env.opts.Numerics {
		nc.state.OnReduce(nc, si, vals)
	}
}

// fail records the rank's first contract violation; Run reports it once
// every rank has finished. The run itself carries on unchanged, so a
// violation cannot deadlock the run.
func (nc *NodeCtx) fail(err error) {
	if p := nc.R.Rank(); nc.env.errs[p] == nil {
		nc.env.errs[p] = err
	}
}

// compute charges work units to the virtual clock, scaled by the current
// iteration's weight (nonuniform-iteration support, §3.1). The
// instrumented iteration is iteration 0, so extracted rates are in
// weight-0 units and the model rescales per iteration.
func (nc *NodeCtx) compute(work float64) {
	nc.R.Compute(work*nc.Prog.IterWeight(nc.Iter), nc.Prog.WorkUnitCost)
}
