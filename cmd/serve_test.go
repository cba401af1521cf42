// Differential tests for mheta-serve: the server's wire values must
// match what the mheta-predict and mheta-search binaries print for the
// same scenario — rendered through the CLIs' own format strings, so a
// single changed bit breaks the comparison. The server process is
// started on a free port and torn down via SIGINT, which also exercises
// the binary's graceful-shutdown path end to end.
package cmd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// serveProc is one running mheta-serve process.
type serveProc struct {
	base   string // http://host:port
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	lines  chan string
	// read is closed once stderr has been read to EOF; Wait closes the
	// pipe, so stop waits for it first or the last lines can be lost.
	read chan struct{}
}

// startServe launches mheta-serve on a free port and waits for its
// listening line. Stop it with p.stop(t).
func startServe(t *testing.T, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{stderr: &bytes.Buffer{}, lines: make(chan string, 64), read: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(binDir, "mheta-serve"),
		append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			p.stderr.WriteString(sc.Text() + "\n")
			select {
			case p.lines <- sc.Text():
			default:
			}
		}
		close(p.lines)
		close(p.read)
	}()
	deadline := time.After(30 * time.Second)
	for p.base == "" {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("mheta-serve exited before listening:\n%s", p.stderr)
			}
			if _, after, found := strings.Cut(line, "listening on "); found {
				p.base = strings.TrimSpace(after)
			}
		case <-deadline:
			p.cmd.Process.Kill()
			t.Fatalf("mheta-serve did not report a listening address:\n%s", p.stderr)
		}
	}
	return p
}

// stop interrupts the server and asserts a clean, drained exit.
func (p *serveProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-p.read
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("mheta-serve exit: %v\n%s", err, p.stderr)
	}
	if !strings.Contains(p.stderr.String(), "drained") {
		t.Errorf("mheta-serve did not report a drain:\n%s", p.stderr)
	}
}

// post sends a JSON body and returns status and response bytes.
func (p *serveProc) post(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// serveScenario is the wire scenario both differential tests use.
var serveScenario = map[string]any{"app": "jacobi", "config": "HY1", "scale": "test"}

// TestServeDifferentialPredict pins POST /predict against mheta-predict:
// the server's numbers, rendered with the CLI's own format strings, must
// appear verbatim in the CLI output for the same scenario.
func TestServeDifferentialPredict(t *testing.T) {
	params := filepath.Join(t.TempDir(), "params.json")
	run(t, "mheta-predict", "-params", params, "-collect", "jacobi:HY1", "-scale", "test")
	cli := run(t, "mheta-predict", "-params", params, "-detailed")

	p := startServe(t)
	defer p.stop(t)

	req := map[string]any{"detailed": true}
	for k, v := range serveScenario {
		req[k] = v
	}
	code, data := p.post(t, "/predict", req)
	if code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", code, data)
	}
	var resp struct {
		Program       string    `json:"program"`
		Dist          []int     `json:"dist"`
		Iterations    int       `json:"iterations"`
		TotalS        float64   `json:"total_s"`
		PerIterationS float64   `json:"per_iteration_s"`
		NodeTimesS    []float64 `json:"node_times_s"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("predict response %s: %v", data, err)
	}

	// Render the server's values exactly as mheta-predict prints its
	// own; any numerical difference breaks the substring match.
	nodeTimes := "node times (s): "
	for _, tt := range resp.NodeTimesS {
		nodeTimes += fmt.Sprintf("%8.4f", tt)
	}
	for _, want := range []string{
		fmt.Sprintf("program:        %s", resp.Program),
		fmt.Sprintf("distribution:   %v", resp.Dist),
		fmt.Sprintf("per iteration:  %.6fs", resp.PerIterationS),
		fmt.Sprintf("total (%d it):  %.6fs", resp.Iterations, resp.TotalS),
		nodeTimes,
	} {
		if !strings.Contains(cli, want) {
			t.Errorf("CLI output missing server-rendered line %q:\n%s", want, cli)
		}
	}
}

// TestServeDifferentialSearch pins POST /search against mheta-search the
// same way: the result row and the blk baseline row, rendered with the
// CLI's format, must appear verbatim in the CLI output.
func TestServeDifferentialSearch(t *testing.T) {
	cli := run(t, "mheta-search", "-app", "jacobi", "-config", "HY1", "-scale", "test", "-alg", "gbs")

	p := startServe(t)
	defer p.stop(t)

	req := map[string]any{"alg": "gbs"}
	for k, v := range serveScenario {
		req[k] = v
	}
	code, data := p.post(t, "/search", req)
	if code != http.StatusOK {
		t.Fatalf("search: status %d: %s", code, data)
	}
	var resp struct {
		Algorithm   string  `json:"algorithm"`
		TimeS       float64 `json:"time_s"`
		Evaluations int     `json:"evaluations"`
		Best        []int   `json:"best"`
		Blk         []int   `json:"blk"`
		BlkTimeS    float64 `json:"blk_time_s"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("search response %s: %v", data, err)
	}
	for _, want := range []string{
		fmt.Sprintf("%-10s %10.3f %8s  %v", "blk", resp.BlkTimeS, "-", resp.Blk),
		fmt.Sprintf("%-10s %10.3f %8d  %v", resp.Algorithm, resp.TimeS, resp.Evaluations, resp.Best),
	} {
		if !strings.Contains(cli, want) {
			t.Errorf("CLI output missing server-rendered row %q:\n%s", want, cli)
		}
	}
}

// TestServeMetricsAndErrors covers the remaining binary surface in one
// server: live /metrics content, 400 on a malformed scenario, and 404
// off the route table.
func TestServeMetricsAndErrors(t *testing.T) {
	p := startServe(t)
	defer p.stop(t)

	if code, data := p.post(t, "/predict", serveScenario); code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", code, data)
	}
	if code, data := p.post(t, "/predict", map[string]any{"app": "nope", "config": "HY1"}); code != http.StatusBadRequest {
		t.Errorf("bad app: status %d (%s), want 400", code, data)
	}

	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{"serve.predict.requests", "serve.engines.built", "search.memo.misses"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q:\n%s", want, data)
		}
	}

	resp, err = http.Get(p.base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope: status %d, want 404", resp.StatusCode)
	}
}

// TestServeFlagRejection pins the usage-error exits on the server's
// sizing flags, matching the other binaries' exit-2 convention.
func TestServeFlagRejection(t *testing.T) {
	runExpectUsage(t, "mheta-serve", []string{"-workers"}, "-workers", "0")
	runExpectUsage(t, "mheta-serve", []string{"-queue-depth"}, "-queue-depth", "-1")
	runExpectUsage(t, "mheta-serve", []string{"-max-searches"}, "-max-searches", "0")
	runExpectUsage(t, "mheta-serve", []string{"-drain"}, "-drain", "-1s")
}
