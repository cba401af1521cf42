package main

import "fmt"

// metricName is a metric the benchmark prints, with its unit. The lists
// below are the order of the printed tables; BENCHMARK.json names the
// same metrics (a test holds the two in step).
type metricName struct{ name, unit string }

// e2eNames are measured with tracing off, on every workload.
var e2eNames = []metricName{
	{"cpu_ms", "ms"},
	{"setup_s", "s"},
	{"heap_retained_mb", "MB"},
}

// layerNames are measured by a traced run. A workload that does not
// call into a layer reports its metrics as 0.
var layerNames = func() []metricName {
	ns := []metricName{
		{"unit.wall_s", "s"},
		{"instrument.collect_s", "s"},
		{"instrument.microbench_s", "s"},
		{"instrument.iteration_s", "s"},
		{"core.predict_us", "us"},
		{"search.total_s", "s"},
		{"search.gbs_s", "s"},
		{"search.genetic_s", "s"},
		{"search.annealing_s", "s"},
		{"search.random_s", "s"},
		{"search.evals", "count"},
		{"search.proportional_us", "us"},
		{"search.delta_hit_pct", "%"},
		{"search.memo_hit_pct", "%"},
	}
	for w := 0; w < searchWorkers; w++ {
		ns = append(ns, metricName{fmt.Sprintf("search.pool_busy_pct.w%02d", w), "%"})
	}
	ns = append(ns, []metricName{
		{"search.outside_model_pct", "%"},
		{"exec.run_s", "s"},
		{"exec.events", "count"},
		{"exec.sends", "count"},
		{"exec.ns_per_event", "ns"},
		{"exec.allocs_per_run", "count"},
		{"exec.bytes_per_run", "B"},
		{"model.err_pct", "%"},
		{"serve.predict_p50_ms", "ms"},
		{"serve.predict_p99_ms", "ms"},
		{"serve.goodput_rps", "1/s"},
		{"serve.capacity_rps", "1/s"},
		{"serve.search_p50_ms", "ms"},
		{"serve.cold_predict_ms", "ms"},
		{"serve.handler_us_p50", "us"},
		{"serve.handler_us_p99", "us"},
		{"serve.transport_us", "us"},
		{"serve.reqs_per_batch", "count"},
		{"serve.engines_built", "count"},
		{"serve.shed", "count"},
		{"serve.goroutines_end", "count"},
		{"loadgen.lag_ms", "ms"},
		{"mem.max_rss_mb", "MB"},
	}...)
	for _, l := range layers {
		ns = append(ns, metricName{"layer." + l + ".self_s", "s"}, metricName{"layer." + l + ".share_pct", "%"})
	}
	return append(ns, metricName{"trace.overhead_pct", "%"})
}()
