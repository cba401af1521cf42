package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var workloads = []string{"paper-pipeline", "wide-cluster", "serve-mix"}

// TestInputsDeterministic: the same seed gives byte-identical inputs,
// and another seed gives other inputs.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		enc := func(seed uint64) []byte {
			in, err := genInputs(w, seed, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b, c := enc(7), enc(7), enc(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
	}
}

type benchSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkJSONNames: BENCHMARK.json names exactly the metrics the
// program prints, with the same units, and the workloads it accepts.
func TestBenchmarkJSONNames(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, got []metricName, want map[string]string, entries int) {
		if len(got) != len(want) || entries != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d entries naming %d", kind, len(got), entries, len(want))
		}
		for _, m := range got {
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s [%s] not in BENCHMARK.json (unit there %q)", kind, m.name, m.unit, u)
			}
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", e2eNames, e2e, len(s.EndToEnd))
	check("per_layer", layerNames, layer, len(s.PerLayer))
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
}

// TestTailPercentile: a tail percentile is reported only with at least
// ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {9999, 99, true}, {1000, 99, true}, {999, 95, true},
		{200, 95, true}, {199, 90, true}, {100, 90, true}, {40, 75, true}, {39, 0, false}, {0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990 at p99", v, p)
	}
	if v, p := tail(xs[:30]); p != 50 || v != 15.5 {
		t.Errorf("tail of 1..30 = %v at p%v, want the median 15.5", v, p)
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.unit", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "search.gbs", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "exec.Run", Start: 30, End: 60, Parent: 0, Op: 0},
		{Name: "core.Predict", Start: 0, End: 500, Parent: -1, Op: -1}, // a probe: outside units
	}}
	self, wall := tr.layerTimes()
	if wall != 100e-6 {
		t.Errorf("wall = %v, want 100us", wall)
	}
	for layer, want := range map[string]float64{"bench": 50e-6, "search": 30e-6, "exec": 30e-6, "core": 0} {
		if d := self[layer] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], want)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: each must
// finish with error_rate 0 and print exactly the metrics BENCHMARK.json
// names for its mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
				"--spans-out", filepath.Join(t.TempDir(), "spans.json")}
			if code := run(args, &out); code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s", w, trace, code, out.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]bool{}
			if trace == "0" {
				for _, m := range s.EndToEnd {
					want[m.Name] = true
				}
			} else {
				for _, m := range s.PerLayer {
					want[m.Name] = true
				}
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("%s trace=%s: printed metric %s is not in BENCHMARK.json", w, trace, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%s: metric %s missing", w, trace, name)
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}
