package search

import (
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/obs"
)

// ModelEvaluator adapts a MHETA model to the Evaluator interface,
// minimising total predicted execution time: "A separate component of
// the runtime system uses MHETA to evaluate all candidate distributions
// as part of a search algorithm" (§1). It is the full-evaluation
// reference the delta evaluator is proven against. A Model reuses scratch
// across Predict calls and is not safe for concurrent use, so a Pool
// builds one per worker over its own clone.
type ModelEvaluator struct {
	Model *core.Model
}

// Evaluate implements Evaluator; base is ignored.
func (m ModelEvaluator) Evaluate(out []float64, _ dist.Distribution, ds []dist.Distribution) {
	checkBatch(out, ds)
	for i, d := range ds {
		out[i] = m.Model.PredictTotal(d)
	}
}

// DeltaModelEvaluator adapts a model's incremental evaluator
// (core.DeltaEvaluator) to the Evaluator interface. Scores are
// bit-identical to ModelEvaluator — the delta cache affects only speed —
// so swapping it in changes no search outcome, only the
// candidates/second rate. The batch's base primes the cache rows its
// candidates share with it (this is what makes pool workers, whose caches
// start cold, warm up in one step instead of per candidate).
//
// Like the Model it wraps, a DeltaModelEvaluator is single-goroutine; a
// Pool builds one per worker over its own model clone.
type DeltaModelEvaluator struct {
	de *core.DeltaEvaluator
	// lastBase is a private copy of the base most recently warmed,
	// deduplicating consecutive batches against the same ancestor with a
	// plain element compare (cheaper than hashing for the short
	// distributions searches use, and exact).
	lastBase dist.Distribution
	haveBase bool
	// Delta-path observability (nil when unobserved): search.delta.hit
	// counts candidates served by the cache-replay path, search.delta.full
	// fall-backs to full evaluation. Every evaluator built on one registry
	// fetches the same atomic counters by name, so the registry sees
	// whole-search totals across pool workers.
	obsHit, obsFull *obs.Counter
}

// NewDeltaModelEvaluator builds a delta evaluator over model (using the
// model's lazily-created core.DeltaEvaluator) whose delta-path counters
// live on r. A nil registry disables them.
func NewDeltaModelEvaluator(model *core.Model, r *obs.Registry) Evaluator {
	return &DeltaModelEvaluator{
		de:      model.Delta(),
		obsHit:  r.Counter("search.delta.hit"),
		obsFull: r.Counter("search.delta.full"),
	}
}

// Evaluate implements Evaluator (serially — concurrency is the Pool's
// job). The delta-path counters are flushed once per batch rather than
// per candidate.
func (e *DeltaModelEvaluator) Evaluate(out []float64, base dist.Distribution, ds []dist.Distribution) {
	checkBatch(out, ds)
	if base != nil && !(e.haveBase && base.Equal(e.lastBase)) {
		e.lastBase = append(e.lastBase[:0], base...)
		e.haveBase = true
		e.de.Warm(base)
	}
	hit, full := 0, 0
	for i, d := range ds {
		v, usedDelta := e.de.Evaluate(d)
		if usedDelta {
			hit++
		} else {
			full++
		}
		out[i] = v
	}
	if hit > 0 {
		e.obsHit.Add(int64(hit))
	}
	if full > 0 {
		e.obsFull.Add(int64(full))
	}
}

// ForModel builds the evaluator stack a search over model runs on:
// newEv's evaluator over model itself when workers is 0 or 1, otherwise a
// Pool of workers (negative selects GOMAXPROCS) whose first worker
// evaluates model and every other worker a clone of it. newEv is
// NewDeltaModelEvaluator for production searches; the counters it and
// the pool register go on r (nil disables them). Values are bit-identical
// for any worker count.
func ForModel(model *core.Model, workers int, r *obs.Registry, newEv func(*core.Model, *obs.Registry) Evaluator) Evaluator {
	if workers == 0 || workers == 1 {
		return newEv(model, r)
	}
	p := NewPool(workers, func(w int) Evaluator {
		if w == 0 {
			return newEv(model, r)
		}
		return newEv(model.Clone(), r)
	})
	p.Observe(r)
	return p
}
