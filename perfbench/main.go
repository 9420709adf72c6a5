// Command perfbench is the repository's benchmark. Each run measures one
// workload and prints, as its last line, one JSON object with the run's
// correctness, query counts and metrics.
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 15 --trace 0
//
// run.sh builds resolverd, authserver and this program from the checkout
// into .bench_build and then runs it. The live workloads (hot, unique,
// mixed) start the daemons and drive them open-loop over loopback UDP; the
// repro workload runs the paper reproduction in a child process. With
// --trace 1 the run reports per-layer metrics instead: daemon counters, a
// traced run at the code's seams, and the in-process layer ladder. See
// README.md for every metric and what it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dnsttl"
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of a timed run (--trace 0), on every workload.
// cpu_s is the CPU the measured work took: both daemons over the window on
// a live workload, one pass over the 30 experiments on repro;
// cpu_us_per_query divides it by the queries sent (on repro, by the
// experiments run). setup_s is the CPU time set-up takes. The bounds are
// the share of the parent's median a metric may worsen by: at least three
// times the largest run-to-run spread measured over ten seeds, and wide
// enough for the host's drift between two sets of runs (up to 11% in CPU
// over a few minutes on the VM the benchmark was sized on). Client
// latency and wall-clock set-up time are printed by every timed run but
// not gated: hypervisor steal moved them by more than the largest allowed
// bound between runs of identical code (see README.md).
var endToEnd = []metricDef{
	{"cpu_us_per_query", "us", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadDocs gives the reason each workload exists.
var workloadDocs = []workloadDoc{
	{"hot", "cache hits at 3000 qps: per-packet cost of socket loop, codec, default pipeline and cache read; bypass case for the miss path"},
	{"unique", "every query a new name at 1000 qps: upstream transport, authoritative wildcard serving with RRL, LRU cache puts and eviction"},
	{"mixed", "paper-shaped traffic at 1000 qps: two TTL classes, NXDOMAIN and blocked names through a farm, hardened pipeline and qlog"},
	{"repro", "the paper reproduction in-process: all 30 experiments at quick scale, checked byte for byte against expected output"},
}

// perLayer lists the metrics of a traced run (--trace 1). A metric that
// does not apply to a workload reads 0 there.
func perLayer() []metricDef {
	c := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		c("recursive.serve_us", "us", "lower"),
		c("recursive.serve_self_us", "us", "lower"),
		c("resolver.upstream_us", "us", "lower"),
		c("resolver.upstream_per_query", "ratio", "lower"),
		c("auth.serve_us", "us", "lower"),
		c("transport.exchange_self_us", "us", "lower"),
		c("udp.socket_us", "us", "lower"),
		c("udp.inflight_max", "count", "lower"),
		c("udp.inflight_mean", "count", "lower"),
		c("trace.spans", "count", "higher"),
		c("trace.unlinked", "count", "lower"),
		c("trace.overhead_cpu_us_per_query", "us", "lower"),
		c("trace.overhead_p50_ms", "ms", "lower"),
		c("auth_queries_per_query", "ratio", "lower"),
		c("cache.hit_ratio", "ratio", "higher"),
		c("cache.evictions_per_query", "ratio", "lower"),
		c("transport.reuse_ratio", "ratio", "higher"),
		c("transport.errors", "count", "lower"),
		c("farm.coalesced_per_query", "ratio", "higher"),
		c("mw.shield.blocked_share", "ratio", "higher"),
		c("mw.guard.limited", "count", "lower"),
		c("mw.once.coalesced_share", "ratio", "higher"),
		c("qlog.bytes_per_query", "B", "lower"),
		c("qlog.dropped", "count", "lower"),
		c("auth.rrl_passed_per_query", "ratio", "higher"),
		c("auth.rrl_dropped", "count", "lower"),
		c("resolverd.cpu_us_per_query", "us", "lower"),
		c("authserver.cpu_us_per_query", "us", "lower"),
		c("resolverd.gc_cycles_per_kquery", "count", "lower"),
		c("resolverd.gc_pause_ms", "ms", "lower"),
		c("loadgen.p50_ms", "ms", "lower"),
		c("loadgen.p99_ms", "ms", "lower"),
		c("loadgen.late_ms_p99", "ms", "lower"),
		c("loadgen.sent", "count", "higher"),
	}
	for _, e := range ladderEntries {
		defs = append(defs, c(e+".ns", "ns", "lower"), c(e+".bytes", "B", "lower"), c(e+".allocs", "count", "lower"))
	}
	for _, id := range dnsttl.ExperimentIDs {
		defs = append(defs, c("repro."+id+".cpu_s", "s", "lower"))
	}
	return defs
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// and the metrics a run prints cannot drift apart. Per-layer metrics have
// no bound, so theirs is left out.
func benchmarkJSON(seconds int) ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, seconds, workloadDocs, endToEnd, perLayer()}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the run's last output line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// invalidError marks a run that measured nothing trustworthy: it is not
// scored, and its reason is printed.
type invalidError struct{ reason string }

func (e invalidError) Error() string { return "invalid run: " + e.reason }

func main() {
	// Subcommands run the processes a benchmark run starts.
	if len(os.Args) > 1 && (os.Args[1] == "host" || os.Args[1] == "repro") {
		run := hostMain
		if os.Args[1] == "repro" {
			run = reproChild
		}
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name     = flag.String("workload", "", "workload: hot, unique, mixed or repro")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		binDir   = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding resolverd, authserver and perfbench")
		workDir  = flag.String("work", filepath.Join(".bench_build", "run"), "directory for each run's zone files, logs and spans")
		writeDoc = flag.String("write-benchmark-json", "", "write BENCHMARK.json to this path and exit")
	)
	flag.Parse()
	if *writeDoc != "" {
		b, err := benchmarkJSON(runSeconds)
		if err == nil {
			err = os.WriteFile(*writeDoc, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	b := &bench{bin: *binDir, work: *workDir, seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := b.run(*name)
	if err != nil {
		var ie invalidError
		if errors.As(err, &ie) {
			fmt.Println(ie.Error())
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
