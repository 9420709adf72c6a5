package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dnsttl"
)

// expectedRepro is the reproduction's expected output, relative to the
// checkout root: every report's text, plus a digest of its JSON form.
var expectedRepro = filepath.Join("perfbench", "expected", "repro.txt")

// Only the planet-scale tier reads the wall clock; these are its two
// wall-clock metrics and the text that prints them.
var wallMetrics = []string{"wall_seconds", "throughput_user_seconds_per_wall_second"}

// renderReport is the comparable form of one report: its text with the
// wall-clock lines masked, and the SHA-256 of its JSON with the same lines
// masked and without the wall-clock metrics.
func renderReport(r *dnsttl.Report) (string, string, error) {
	cp := *r
	cp.Text = maskWallClock(r.Text)
	cp.Metrics = map[string]float64{}
	for k, v := range r.Metrics {
		if !containsAny(k, wallMetrics) {
			cp.Metrics[k] = v
		}
	}
	js, err := json.Marshal(&cp)
	if err != nil {
		return "", "", err
	}
	return maskWallClock(r.String()), fmt.Sprintf("%x", sha256.Sum256(js)), nil
}

func maskWallClock(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if strings.Contains(l, "total wall ") || containsAny(l, wallMetrics) {
			lines[i] = "<masked wall-clock line>"
		}
	}
	return strings.Join(lines, "\n")
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// reproRecord is what the child reports per experiment run.
type reproRecord struct {
	ID     string `json:"id"`
	CPUNs  int64  `json:"cpu_ns"`
	Text   string `json:"text"`
	Digest string `json:"digest"`
}

func cpuSelfNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// reproChild is the repro process: "repro -setup-only" prints ready and
// exits; "repro" runs every experiment once and prints one JSON record per
// experiment run and a final line with its peak RSS. "repro
// -write-expected PATH" writes the expected-output file.
func reproChild(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	setupOnly := fs.Bool("setup-only", false, "print ready and exit")
	writeExpected := fs.String("write-expected", "", "write the expected-output file to this path and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("ready")
	if *setupOnly {
		return nil
	}
	sc := dnsttl.QuickScale() // seed 42
	sc.Workers = 1
	enc := json.NewEncoder(os.Stdout)
	var expected strings.Builder
	for _, id := range dnsttl.ExperimentIDs {
		c0 := cpuSelfNs()
		r, err := dnsttl.RunExperiment(id, sc)
		if err != nil {
			return err
		}
		rec := reproRecord{ID: id, CPUNs: cpuSelfNs() - c0}
		if rec.Text, rec.Digest, err = renderReport(r); err != nil {
			return err
		}
		if *writeExpected != "" {
			fmt.Fprintf(&expected, "#### %s %s\n%s\n", id, rec.Digest, rec.Text)
			continue
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if *writeExpected != "" {
		return os.WriteFile(*writeExpected, []byte(expected.String()), 0o644)
	}
	rss, err := procStatusMB(os.Getpid(), "VmHWM:")
	if err != nil {
		return err
	}
	fmt.Printf("rss_mb %v\n", rss)
	return nil
}

// parseExpected reads the expected-output file into id -> (text, digest).
func parseExpected(path string) (map[string][2]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][2]string{}
	for _, part := range strings.Split(string(b), "#### ")[1:] {
		head, text, _ := strings.Cut(part, "\n")
		f := strings.Fields(head)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: bad header %q", path, head)
		}
		out[f[0]] = [2]string{strings.TrimSuffix(text, "\n"), f[1]}
	}
	return out, nil
}

// runRepro is the repro workload: set-up time from several bare launches
// of the child, then one child that runs the experiments. Its inputs are
// the paper reproduction's own (seed 42), so --seed changes nothing here.
func (b *bench) runRepro(dir string) (*outcome, error) {
	want, err := parseExpected(expectedRepro)
	if err != nil {
		return nil, err
	}
	self := filepath.Join(b.bin, "perfbench")
	// Set-up is process launch to ready; its cost is the child's CPU time.
	var setupCPU, setupWall []float64
	for i := 0; i < reproSetupRuns; i++ {
		t0 := time.Now()
		c := exec.Command(self, "repro", "-setup-only")
		out, err := c.Output()
		if err != nil || !bytes.HasPrefix(out, []byte("ready")) {
			return nil, fmt.Errorf("repro set-up: %v %q", err, out)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (c.ProcessState.UserTime() + c.ProcessState.SystemTime()).Seconds())
	}
	cmd := exec.Command(self, "repro")
	// The experiments run serially (Workers: 1). With one P and a
	// stop-the-world collector, when a collection starts depends on the
	// allocations alone, not on how the host schedules the concurrent
	// mark: otherwise peak RSS moved by 10% between runs of identical code.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GODEBUG=gcstoptheworld=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repro child: %w", err)
	}
	var recs []reproRecord
	rss := 0.0
	for _, line := range strings.Split(string(stdout), "\n") {
		if v, ok := strings.CutPrefix(line, "rss_mb "); ok {
			if rss, err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("repro child rss: %w", err)
			}
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r reproRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("repro output: %w", err)
		}
		recs = append(recs, r)
	}

	if len(recs) != len(dnsttl.ExperimentIDs) {
		return nil, fmt.Errorf("repro child reported %d experiments, want %d", len(recs), len(dnsttl.ExperimentIDs))
	}
	failed := 0
	cpu := 0.0
	m := map[string]float64{}
	for _, r := range recs {
		w, ok := want[r.ID]
		switch {
		case !ok:
			fmt.Printf("repro %s: no expected output\n", r.ID)
			failed++
		case r.Text != w[0]:
			fmt.Printf("repro %s: text differs from %s\n", r.ID, expectedRepro)
			failed++
		case r.Digest != w[1]:
			fmt.Printf("repro %s: JSON digest %s, want %s\n", r.ID, r.Digest, w[1])
			failed++
		}
		m["repro."+r.ID+".cpu_s"] = float64(r.CPUNs) / 1e9
		cpu += float64(r.CPUNs) / 1e9
	}
	if !b.trace {
		out := &outcome{Correct: failed == 0, Attempted: len(recs), Failed: failed, Metrics: map[string]metric{}}
		out.Metrics["cpu_us_per_query"] = metric{cpu / float64(len(recs)) * 1e6, "us"}
		out.Metrics["cpu_s"] = metric{cpu, "s"}
		out.Metrics["rss_mb"] = metric{rss, "MB"}
		out.Metrics["setup_s"] = metric{median(setupCPU), "s"}
		fmt.Printf("set-up wall time %.4f s (not gated)\n", median(setupWall))
		return out, nil
	}
	// The ladder runs on the paper-shaped mixed stream.
	cells, err := runLadder(generate(workloads["mixed"], b.seed, 1), dir)
	if err != nil {
		return nil, err
	}
	out := layerOutcome(m, cells)
	out.Correct, out.Attempted, out.Failed = failed == 0, len(recs), failed
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
