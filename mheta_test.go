package mheta_test

import (
	"testing"

	"mheta"
)

func TestNamedClusterAPI(t *testing.T) {
	for _, name := range []string{"DC", "IO", "HY1", "HY2"} {
		spec, err := mheta.NamedCluster(name)
		if err != nil {
			t.Fatalf("NamedCluster(%s): %v", name, err)
		}
		if spec.N() != 8 {
			t.Fatalf("%s: %d nodes", name, spec.N())
		}
	}
	if _, err := mheta.NamedCluster("nope"); err == nil {
		t.Fatal("bad name accepted")
	}
}

func TestMustNamedClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	mheta.MustNamedCluster("nope")
}

func TestFacadeEndToEnd(t *testing.T) {
	spec := mheta.MustNamedCluster("HY1")
	cfg := mheta.JacobiDefaults()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 96, 3
	app := mheta.Jacobi(cfg)

	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		t.Fatal(err)
	}
	blk := mheta.BlockDistribution(app, spec)
	if blk.Total() != cfg.Rows {
		t.Fatalf("Blk total %d", blk.Total())
	}
	pred := model.Predict(blk)
	if pred.Total <= 0 {
		t.Fatal("non-positive prediction")
	}
	actual, err := mheta.RunActual(spec, app, blk, 7)
	if err != nil {
		t.Fatal(err)
	}
	ratio := pred.Total / actual
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("prediction %v vs actual %v", pred.Total, actual)
	}
}

func TestFacadeAppBuilders(t *testing.T) {
	builders := []*mheta.App{
		mheta.Jacobi(mheta.JacobiDefaults()),
		mheta.CG(mheta.CGDefaults()),
		mheta.Lanczos(mheta.LanczosDefaults()),
		mheta.RNA(mheta.RNADefaults()),
		mheta.Multigrid(mheta.MGDefaults()),
	}
	for _, app := range builders {
		if err := app.Prog.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Prog.Name, err)
		}
	}
}

func TestSearchWithAllAlgorithms(t *testing.T) {
	spec := mheta.MustNamedCluster("HY1")
	cfg := mheta.JacobiDefaults()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 96, 3
	app := mheta.Jacobi(cfg)
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		t.Fatal(err)
	}
	blkPred := model.Predict(mheta.BlockDistribution(app, spec)).Total
	for _, alg := range []string{mheta.AlgGBS, mheta.AlgGenetic, mheta.AlgAnnealing, mheta.AlgRandom} {
		res, err := mheta.SearchWith(alg, spec, app, model, 42)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Time > blkPred*1.001 {
			t.Errorf("%s found a worse-than-Blk distribution", alg)
		}
		if err := res.Best.Validate(cfg.Rows); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
	if _, err := mheta.SearchWith("bogus", spec, app, model, 42); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestSearchLeavesCallerModelCold(t *testing.T) {
	// A search's delta cache is the search's scratch: once
	// SearchWithOptions returns, the caller's model holds none of it,
	// inline or pooled.
	spec := mheta.MustNamedCluster("HY1")
	cfg := mheta.JacobiDefaults()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 96, 3
	app := mheta.Jacobi(cfg)
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		if _, err := mheta.SearchWithOptions(mheta.AlgGBS, spec, app, model, 42, mheta.SearchOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if st := model.Delta().Stats(); st.Hits+st.Misses+st.FullEvals != 0 {
			t.Fatalf("workers=%d: the caller's model served the search's evaluations: %+v", workers, st)
		}
	}
}

// TestSearchCountingInvariant pins "every counted evaluation reaches the
// model exactly once": for each algorithm, inline and pooled, the delta
// evaluator's hit+full count, the pool's evaluation count and (for GBS,
// which counts through its memo) the memo misses all equal the result's
// Evaluations.
func TestSearchCountingInvariant(t *testing.T) {
	spec := mheta.MustNamedCluster("HY1")
	cfg := mheta.JacobiDefaults()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 96, 3
	app := mheta.Jacobi(cfg)
	model, err := mheta.Instrument(spec, app, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{mheta.AlgGBS, mheta.AlgGenetic, mheta.AlgAnnealing, mheta.AlgRandom} {
		for _, workers := range []int{1, 2} {
			reg := mheta.NewMetrics()
			res, err := mheta.SearchWithOptions(alg, spec, app, model, 42, mheta.SearchOptions{Workers: workers, Metrics: reg})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", alg, workers, err)
			}
			evals := int64(res.Evaluations)
			if evals <= 0 {
				t.Fatalf("%s/workers=%d: %d evaluations", alg, workers, evals)
			}
			if got := reg.Counter("search.delta.hit").Value() + reg.Counter("search.delta.full").Value(); got != evals {
				t.Errorf("%s/workers=%d: delta hit+full = %d, want Evaluations %d", alg, workers, got, evals)
			}
			pooled := reg.Counter("search.pool.evaluations").Value()
			if workers > 1 && pooled != evals {
				t.Errorf("%s/workers=%d: pool evaluations = %d, want %d", alg, workers, pooled, evals)
			}
			if workers == 1 && pooled != 0 {
				t.Errorf("%s/workers=1: pool evaluations = %d, want 0 (inline)", alg, pooled)
			}
			if misses := reg.Counter("search.memo.misses").Value(); alg == mheta.AlgGBS && misses != evals {
				t.Errorf("%s/workers=%d: memo misses = %d, want %d", alg, workers, misses, evals)
			}
		}
	}
}

func TestInstrumentParamsRoundTrip(t *testing.T) {
	spec := mheta.MustNamedCluster("IO")
	cfg := mheta.JacobiDefaults()
	cfg.Rows, cfg.Cols, cfg.Iterations = 768, 96, 3
	app := mheta.Jacobi(cfg)
	params, err := mheta.InstrumentParams(spec, app, 42)
	if err != nil {
		t.Fatal(err)
	}
	if params.Program != "jacobi" || params.Nodes != 8 {
		t.Fatalf("params header %+v", params)
	}
}
