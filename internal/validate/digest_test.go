package validate

// The frozen-digest suite pins the emulator's observable timing output —
// per-rank clocks, instrumented parameter sets and Chrome-trace bytes —
// to digests recorded before the emulator stopped computing data values
// by default (DESIGN.md §5.17). Virtual time must not depend on data
// values, so the default (timing-only) emulator has to reproduce the
// digests bit for bit. Regenerate only for an intentional timing change,
// and say why in the commit:
//
//	go test ./internal/validate -run TestFrozenDigests -update

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/experiments"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/paramfile"
	"mheta/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden")

const digestFile = "digests.golden"

// paperJobs are the paper-pipeline workload's five jobs: one Table 1
// configuration per application at paper scale on eight nodes.
var paperJobs = [][2]string{{"jacobi", "HY1"}, {"cg", "DC"}, {"lanczos", "IO"}, {"rna", "HY2"}, {"multigrid", "DC"}}

// digest is a short, stable fingerprint of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// paramsDigest fingerprints a Collect parameter set in its file encoding.
func paramsDigest(t *testing.T, spec cluster.Spec, app *exec.App, seed uint64) string {
	t.Helper()
	params, err := instrument.Collect(spec, app, dist.Block(app.Prog.GlobalElems(), spec.N()), seed, Noise)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	var buf bytes.Buffer
	if err := paramfile.Encode(&buf, &params); err != nil {
		t.Fatal(err)
	}
	return "params=" + digest(buf.Bytes())
}

// runDigest fingerprints one traced run: the Float64bits of every rank's
// clock, and the Chrome-trace bytes.
func runDigest(t *testing.T, spec cluster.Spec, app *exec.App, d dist.Distribution, seed uint64) string {
	t.Helper()
	tr := trace.New()
	res, err := exec.Run(mpi.NewWorld(spec, seed, Noise), app, d, exec.Options{Trace: tr})
	if err != nil {
		t.Fatalf("run %v: %v", d, err)
	}
	bits := make([]byte, 8*len(res.NodeTimes))
	for p, v := range res.NodeTimes {
		binary.LittleEndian.PutUint64(bits[8*p:], math.Float64bits(v))
	}
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	return "times=" + digest(bits) + " trace=" + digest(chrome.Bytes())
}

// TestFrozenDigests recomputes every digest — each corpus seed's
// parameter set and traced runs of all its distribution cases, and the
// paper-pipeline jobs' parameter sets and traced runs at each Figure 8
// anchor — and demands equality with the committed file.
func TestFrozenDigests(t *testing.T) {
	var mu sync.Mutex
	got := map[string]string{}
	put := func(key, val string) {
		mu.Lock()
		defer mu.Unlock()
		got[key] = val
	}

	t.Run("compute", func(t *testing.T) {
		for _, seed := range CorpusSeeds() {
			seed := seed
			t.Run(fmt.Sprintf("corpus/seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				sc := GenScenario(seed)
				prefix := fmt.Sprintf("corpus/seed=%d/", seed)
				put(prefix+"collect", paramsDigest(t, sc.Spec, sc.App, sc.Seed))
				for _, c := range sc.Cases {
					put(prefix+c.Name, runDigest(t, sc.Spec, sc.App, c.Dist, sc.Seed^0xACDC))
				}
			})
		}
		for i, job := range paperJobs {
			i, job := i, job
			t.Run("paper/"+job[0]+"@"+job[1], func(t *testing.T) {
				t.Parallel()
				b, err := experiments.BuilderByName(job[0])
				if err != nil {
					t.Fatal(err)
				}
				app := b.Build(experiments.ScalePaper)
				spec, err := cluster.Named(job[1])
				if err != nil {
					t.Fatal(err)
				}
				seed := 0x5EED + uint64(i)
				prefix := "paper/" + job[0] + "@" + job[1] + "/"
				put(prefix+"collect", paramsDigest(t, spec, app, seed))
				for _, pt := range dist.Spectrum(app.Prog.GlobalElems(), spec, bytesPerElem(app), 1) {
					put(prefix+pt.Label, runDigest(t, spec, app, pt.Dist, seed^0xACDC))
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	path := filepath.Join("testdata", digestFile)
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), path)
		return
	}

	want := readDigests(t, path)
	if len(want) != len(got) {
		t.Errorf("%d digests computed, %d committed", len(got), len(want))
	}
	bad := 0
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: not computed", k)
		} else if g != w {
			bad++
			if bad <= 20 {
				t.Errorf("%s:\n  got  %s\n  want %s", k, g, w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d digests differ from the frozen emulator output", bad, len(want))
	}
}

// readDigests parses the committed "key digest..." lines.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
