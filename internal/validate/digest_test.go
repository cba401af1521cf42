package validate

// The frozen-digest suite pins the emulator's observable timing output —
// per-rank clocks, instrumented parameter sets, MPI-Jack recorders and
// Chrome-trace bytes — to digests recorded before the emulator stopped
// computing data values by default (DESIGN.md §5.17). Virtual time must
// not depend on data values, so the default (timing-only) emulator has to
// reproduce the digests bit for bit. The engine/ lines hold the engine
// differential's matrices (all apps on the Table 1 archetypes, and the
// instrumented iteration), recorded while the event and goroutine cores
// still agreed bit for bit. Regenerate only for an intentional timing
// change, and say why in the commit:
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
	"mheta/internal/mpijack"
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

// timesDigest fingerprints the Float64bits of every rank's clock.
func timesDigest(times []float64) string {
	bits := make([]byte, 8*len(times))
	for p, v := range times {
		binary.LittleEndian.PutUint64(bits[8*p:], math.Float64bits(v))
	}
	return digest(bits)
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
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	return "times=" + timesDigest(res.NodeTimes) + " trace=" + digest(chrome.Bytes())
}

// instrumentDigest fingerprints one instrumented iteration: the
// Float64bits of every rank's clock, and every rank's recorder.
func instrumentDigest(t *testing.T, spec cluster.Spec, app *exec.App, d dist.Distribution, seed uint64) string {
	t.Helper()
	res, err := exec.Run(mpi.NewWorld(spec, seed, Noise), app, d, exec.Options{Mode: exec.ModeInstrument})
	if err != nil {
		t.Fatalf("instrument %v: %v", d, err)
	}
	return "times=" + timesDigest(res.NodeTimes) + " recorders=" + recordersDigest(res.Recorders)
}

// recordersDigest fingerprints every rank's recorder.
func recordersDigest(recs []*mpijack.Recorder) string {
	var buf bytes.Buffer
	for _, rec := range recs {
		encodeRecorder(&buf, rec)
	}
	return digest(buf.Bytes())
}

// encodeRecorder writes every field of rec in a canonical text form: map
// entries in sorted key order, durations as Float64bits.
func encodeRecorder(buf *bytes.Buffer, rec *mpijack.Recorder) {
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	fmt.Fprintf(buf, "rank %d\n", rec.Rank)
	ioKeys := make([]mpijack.IOKey, 0, len(rec.IO))
	for k := range rec.IO {
		ioKeys = append(ioKeys, k)
	}
	sort.Slice(ioKeys, func(i, j int) bool {
		a, b := ioKeys[i], ioKeys[j]
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		if a.Tile != b.Tile {
			return a.Tile < b.Tile
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Var < b.Var
	})
	for _, k := range ioKeys {
		r := rec.IO[k]
		fmt.Fprintf(buf, "io %d %d %d %q: %d %d %d %d %x %x %x %d %d\n", k.Section, k.Tile, k.Stage, k.Var,
			r.ReadCalls, r.WriteCalls, r.ReadBytes, r.WriteBytes, bits(float64(r.ReadTime)), bits(float64(r.WriteTime)),
			bits(float64(r.OverlapCompute)), r.OverlapElems, r.PrefetchIssues)
	}
	commKeys := make([][2]int, 0, len(rec.Comm))
	for k := range rec.Comm {
		commKeys = append(commKeys, k)
	}
	sort.Slice(commKeys, func(i, j int) bool {
		a, b := commKeys[i], commKeys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	for _, k := range commKeys {
		r := rec.Comm[k]
		peers := make([]int, 0, len(r.Peers))
		for p, seen := range r.Peers {
			if seen {
				peers = append(peers, p)
			}
		}
		sort.Ints(peers)
		fmt.Fprintf(buf, "comm %d %d: %d %d %d %d %x %x %x %v %d %d %x\n", k[0], k[1],
			r.Sends, r.Recvs, r.SendBytes, r.RecvBytes, bits(float64(r.SendTime)), bits(float64(r.RecvTime)),
			bits(float64(r.WaitTime)), peers, r.Reductions, r.ReduceBytes, bits(float64(r.ReduceTime)))
	}
	spanKeys := make([][3]int, 0, len(rec.StageSpans))
	for k := range rec.StageSpans {
		spanKeys = append(spanKeys, k)
	}
	sort.Slice(spanKeys, func(i, j int) bool {
		a, b := spanKeys[i], spanKeys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, k := range spanKeys {
		fmt.Fprintf(buf, "span %d %d %d: %x\n", k[0], k[1], k[2], bits(float64(rec.StageSpans[k])))
	}
}

// TestFrozenDigests recomputes every digest — each corpus seed's
// parameter set and traced runs of all its distribution cases, the
// paper-pipeline jobs' parameter sets and traced runs at each Figure 8
// anchor, and the engine matrices — and demands equality with the
// committed file.
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
		for _, name := range AppNames() {
			name := name
			t.Run("engine/"+name, func(t *testing.T) {
				t.Parallel()
				for _, spec := range cluster.NamedAll() {
					key, app, d := engineAppsCase(name, spec)
					put(key, runDigest(t, spec, app, d, engineAppsSeed))
				}
				key, spec, app, d := engineInstrumentCase(name)
				put(key, instrumentDigest(t, spec, app, d, engineInstrumentSeed))
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

// The engine matrices: every application on every Table 1 archetype at
// eight nodes under Blk, and every application's instrumented iteration on
// a six-node HY1 cluster.
const (
	engineAppsSeed       = 0xC0FFEE
	engineInstrumentSeed = 0x5EED
)

func engineAppsCase(name string, spec cluster.Spec) (key string, app *exec.App, d dist.Distribution) {
	app = buildApp(name, newRng(0xA99^uint64(len(name))))
	return "engine/apps/" + name + "@" + spec.Name, app, dist.Block(app.Prog.GlobalElems(), spec.N())
}

func engineInstrumentCase(name string) (key string, spec cluster.Spec, app *exec.App, d dist.Distribution) {
	app = buildApp(name, newRng(0xD1f^uint64(len(name))))
	spec = cluster.HY1(6)
	return "engine/instrument/" + name, spec, app, dist.Block(app.Prog.GlobalElems(), spec.N())
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
