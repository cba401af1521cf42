package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are microseconds since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int     `json:"op"`     // unit of work the span belongs to, -1 outside units
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced units run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// beginAt opens a span whose start lies in the past, e.g. at the moment
// an open-loop request was due.
func (t *tracer) beginAt(name string, at time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	start := float64(at.Sub(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
}

// layers are the layer names the benchmark reports self time for, in
// print order. A span's layer is its name up to the first dot; "bench"
// is the benchmark's own time inside a unit, outside every layer call.
var layers = []string{"instrument", "core", "search", "exec", "serve", "loadgen", "bench"}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerTimes returns each layer's self time in seconds and the summed
// duration of the root spans of units (the end-to-end wall time those
// units took). A span's self time is its duration minus the part of it
// that its children cover.
func (t *tracer) layerTimes() (self map[string]float64, wall float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	// Only spans under a unit's root count: probes outside units are
	// per-layer measurements, not part of the end-to-end time.
	inUnit := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			inUnit[i] = inUnit[s.Parent]
		} else {
			inUnit[i] = s.Op >= 0
			if inUnit[i] {
				wall += (s.End - s.Start) / 1e6
			}
		}
	}
	self = make(map[string]float64, len(layers))
	for i, s := range t.spans {
		if !inUnit[i] {
			continue
		}
		ivs := make([][2]float64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]float64{t.spans[c].Start, t.spans[c].End})
		}
		self[layerOf(s.Name)] += (s.End - s.Start - covered(ivs)) / 1e6
	}
	return self, wall
}

// covered is the length of the union of the intervals.
func covered(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, lo, hi float64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			lo, hi, open = iv[0], iv[1], true
		case iv[0] > hi:
			total += hi - lo
			lo, hi = iv[0], iv[1]
		case iv[1] > hi:
			hi = iv[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
