// Package search implements the data-distribution selection algorithms
// that use MHETA as their evaluation function. The paper's companion
// report [26] evaluates four: generalized binary search (GBS), genetic,
// simulated annealing, and random (§5.3: "MHETA is used as part of four
// different algorithms ... to determine an effective distribution").
//
// [26] is not publicly archived, so the algorithms here are faithful
// reconstructions from the papers' descriptions: every algorithm explores
// the space of GEN_BLOCK distributions (non-negative blocks summing to
// the element count) and minimises the model-predicted execution time.
// GBS exploits the same structure as Figure 8 — the practically good
// distributions lie along the Blk↔I-C↔I-C/Bal↔Bal spectrum, and predicted
// time is close to unimodal along each leg — hence binary search over the
// legs; the stochastic algorithms roam the full space.
//
// Every searcher scores its candidates through one contract, Evaluator,
// whose single method scores a batch with an optional ancestor hint. The
// wrappers compose over it: Pool spreads a batch across workers, Memo
// deduplicates it against a shared table, SearchContext makes a search
// cancellable, and ForModel builds the production stack — a delta
// evaluator per worker, pooled when workers > 1, observed on a registry.
package search

import (
	"fmt"

	"mheta/internal/dist"
	"mheta/internal/vclock"
)

// Evaluator scores candidate distributions; lower is better. It is the
// one evaluation contract every searcher, wrapper and model adapter
// speaks: searchers emit their independent candidates in batches (a
// single candidate is a one-element batch), and wrappers — Pool, Memo,
// the context check — forward batches without ever asking what the inner
// evaluator can do.
type Evaluator interface {
	// Evaluate scores ds[i] into out[i]; len(out) must equal len(ds).
	// base, when non-nil, names the ancestor every ds[i] was derived from
	// (a mutation's parent, a GBS leg's incumbent). It is a warm-up hint
	// only: out[i] must be exactly what a nil base would produce, bit for
	// bit; a base-aware evaluator merely reaches that value faster by
	// reusing work shared with the base (see core.DeltaEvaluator).
	// Implementations must not retain base or ds past the call.
	Evaluate(out []float64, base dist.Distribution, ds []dist.Distribution)
}

// EvaluatorFunc adapts a pure per-candidate scoring function to the
// Evaluator interface. Being pure, it is safe to share across pool
// workers.
type EvaluatorFunc func(d dist.Distribution) float64

// Evaluate implements Evaluator; base is ignored.
func (f EvaluatorFunc) Evaluate(out []float64, _ dist.Distribution, ds []dist.Distribution) {
	checkBatch(out, ds)
	for i, d := range ds {
		out[i] = f(d)
	}
}

// checkBatch enforces the Evaluate length contract.
func checkBatch(out []float64, ds []dist.Distribution) {
	if len(out) != len(ds) {
		panic("search: batch output length mismatch")
	}
}

// Result is a search outcome.
type Result struct {
	Best        dist.Distribution
	Time        float64 // predicted execution time of Best
	Evaluations int     // model evaluations spent
	Algorithm   string
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s: %.4fs in %d evals, dist=%v", r.Algorithm, r.Time, r.Evaluations, r.Best)
}

// Searcher is one distribution-selection algorithm. Every searcher emits
// its candidates in batches, so passing a *Pool as the Evaluator spreads
// the model evaluations across workers; results (Best, Time, Evaluations)
// are bit-identical for any worker count, including a plain serial
// Evaluator. Evaluations counts the model evaluations the search spent,
// since evaluation cost (≈5.4 ms in the paper) bounds how elaborate a
// runtime search can be.
type Searcher interface {
	// Search returns the best distribution found for total elements.
	Search(ev Evaluator, total int) Result
	// Name identifies the algorithm in reports.
	Name() string
}

// randomDist draws a random GEN_BLOCK distribution: weights from a noise
// stream, largest-remainder rounding. With probability zeroP each node is
// excluded (weight 0), letting the search consider leaving weak nodes
// idle. weights is the caller's per-search scratch; its length is the
// node count and it is overwritten. The returned distribution is freshly
// allocated, since searchers retain their candidates.
func randomDist(nz *vclock.Noise, weights []float64, total int, zeroP float64) dist.Distribution {
	positive := false
	for i := range weights {
		if nz.Float64() < zeroP {
			weights[i] = 0
			continue
		}
		weights[i] = 0.05 + nz.Float64()
		positive = true
	}
	if !positive {
		weights[nz.Intn(len(weights))] = 1
	}
	return dist.Proportional(total, weights)
}
