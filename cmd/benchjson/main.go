// Command benchjson runs the repo's performance-critical benchmarks
// in-process and emits a machine-readable JSON report (BENCH_PR<n>.json), so
// the perf trajectory of the codec, cache, resolver, farm and experiment
// sweeps is tracked in-tree instead of in scrollback. The -o default below
// is the one place the report's name is set; scripts/bench.sh uses it.
//
// Usage:
//
//	go run ./cmd/benchjson          # writes BENCH_PR7.json
//	go run ./cmd/benchjson -smoke -o BENCH_SMOKE.json   # CI smoke: skips the multi-second sweeps
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/experiments"
	"dnsttl/internal/farm"
	"dnsttl/internal/loadgen"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
	"dnsttl/internal/workload"
	"dnsttl/internal/zone"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type sweepResult struct {
	Experiment      string  `json:"experiment"`
	Configs         int     `json:"configs"`
	Probes          int     `json:"probes"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelWorkers int     `json:"parallel_workers"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Deterministic   bool    `json:"deterministic"`
	Note            string  `json:"note"`
}

// loadReport is one dnsload-style burst over a real loopback socket.
type loadReport struct {
	Scenario string `json:"scenario"`
	*loadgen.Result
}

type report struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Smoke       bool   `json:"smoke"`
	// BaselineMain pins the pre-optimization numbers (commit bdc7bee) the
	// allocation-reduction acceptance criteria compare against.
	BaselineMain map[string]float64 `json:"baseline_main"`
	Benchmarks   []benchResult      `json:"benchmarks"`
	Loadgen      []loadReport       `json:"loadgen,omitempty"`
	Sweeps       []sweepResult      `json:"sweeps,omitempty"`
	Compiler     *compilerResult    `json:"compiler,omitempty"`
}

func run(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// benchMessage mirrors the referral-sized response the dnswire package
// benchmarks use.
func benchMessage() *dnswire.Message {
	resp := dnswire.NewQuery(7, dnswire.NewName("www.example.org"), dnswire.TypeA).Reply()
	resp.Header.AA = true
	resp.AddAnswer(
		dnswire.NewA("www.example.org", 300, "192.0.2.80"),
		dnswire.NewA("www.example.org", 300, "192.0.2.81"),
	)
	resp.AddAuthority(
		dnswire.NewNS("example.org", 172800, "ns1.example.org"),
		dnswire.NewNS("example.org", 172800, "ns2.example.org"),
	)
	resp.AddAdditional(
		dnswire.NewA("ns1.example.org", 172800, "192.0.2.1"),
		dnswire.NewA("ns2.example.org", 172800, "192.0.2.2"),
	)
	return resp
}

func codecBenches() []benchResult {
	m := benchMessage()
	wire, err := dnswire.Encode(m)
	if err != nil {
		fatal(err)
	}
	return []benchResult{
		run("codec/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dnswire.Encode(m); err != nil {
					b.Fatal(err)
				}
			}
		}),
		run("codec/append_encode", func(b *testing.B) {
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := dnswire.AppendEncode(buf[:0], m)
				if err != nil {
					b.Fatal(err)
				}
				buf = out[:0]
			}
		}),
		run("codec/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dnswire.Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		}),
		run("codec/decoder_reuse", func(b *testing.B) {
			d := dnswire.NewDecoder()
			var msg dnswire.Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.Decode(wire, &msg); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

func cacheBenches() []benchResult {
	mk := func() *cache.Cache { return cache.New(simnet.NewVirtualClock(), cache.Config{}) }
	name := dnswire.NewName("www.example.org")
	entry := func(n dnswire.Name) cache.Entry {
		return cache.Entry{
			Key:  cache.Key{Name: n, Type: dnswire.TypeA},
			RRs:  []dnswire.RR{dnswire.NewA(string(n), 300, "192.0.2.1")},
			TTL:  300,
			Cred: cache.CredAnswerAuth,
		}
	}
	return []benchResult{
		run("cache/put_get", func(b *testing.B) {
			c := mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Put(entry(name))
				if _, _, ok := c.Get(name, dnswire.TypeA); !ok {
					b.Fatal("miss")
				}
			}
		}),
		run("cache/get_hit", func(b *testing.B) {
			c := mk()
			c.Put(entry(name))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := c.Get(name, dnswire.TypeA); !ok {
					b.Fatal("miss")
				}
			}
		}),
		run("cache/get_hit_lru", func(b *testing.B) {
			// Recency maintenance on the hot path must stay allocation-free
			// (also pinned by TestGetHitAllocFreeLRU).
			c := cache.New(simnet.NewVirtualClock(), cache.Config{Eviction: cache.EvictLRU})
			c.Put(entry(name))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := c.Get(name, dnswire.TypeA); !ok {
					b.Fatal("miss")
				}
			}
		}),
		run("cache/put_bounded_lru", func(b *testing.B) {
			// Byte-bounded Put under constant eviction pressure: a 4 KB bound
			// holds ~30 entries, so nearly every Put evicts.
			c := cache.New(simnet.NewVirtualClock(), cache.Config{
				Eviction: cache.EvictLRU, MaxBytes: 4 << 10,
			})
			names := make([]dnswire.Name, 256)
			for i := range names {
				names[i] = dnswire.NewName(fmt.Sprintf("host%03d.example.org", i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(entry(names[i%len(names)]))
			}
		}),
		run("cache/put_bounded_slru", func(b *testing.B) {
			// Same pressure through the TinyLFU admission path (sketch lookups
			// plus doorkeeper per candidate).
			c := cache.New(simnet.NewVirtualClock(), cache.Config{
				Eviction: cache.EvictSLRU, MaxBytes: 4 << 10, Capacity: 64,
			})
			names := make([]dnswire.Name, 256)
			for i := range names {
				names[i] = dnswire.NewName(fmt.Sprintf("host%03d.example.org", i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(entry(names[i%len(names)]))
			}
		}),
		run("cache/purge_glue_of", func(b *testing.B) {
			c := mk()
			for i := 0; i < 8192; i++ {
				c.Put(entry(dnswire.NewName(fmt.Sprintf("host%05d.example.org", i))))
			}
			owner := dnswire.NewName("frag.example.org")
			glue := entry(dnswire.NewName("ns1.frag.example.org"))
			glue.GlueOf = owner
			glue.Cred = cache.CredAdditional
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put(glue)
				if n := c.PurgeGlueOf(owner); n != 1 {
					b.Fatalf("purged %d, want 1", n)
				}
			}
		}),
	}
}

// workloadBenches pins the generator's hot path: the O(1) alias-method
// Zipf draw that replaced the former O(log n) binary search over the
// cumulative distribution. The binary-search reference is timed inline on
// the same masses so the report carries the comparison, not just the
// absolute number.
// sink keeps the draw results observable so the loops aren't dead code.
var sink int

func workloadBenches() []benchResult {
	const names = 1 << 20 // planet-scale name universe
	g := workload.New(dnswire.NewName("bench.example.org"), names, 1.0, 100, 7)
	masses := g.Masses()
	cdf := make([]float64, len(masses))
	sum := 0.0
	for i, m := range masses {
		sum += m
		cdf[i] = sum
	}
	alias := workload.NewAlias(masses)
	return []benchResult{
		run("workload/zipf_draw_alias", func(b *testing.B) {
			b.ReportAllocs()
			u := 0.0
			for i := 0; i < b.N; i++ {
				sink = alias.Draw(u)
				u += 0.6180339887498949 // low-discrepancy sweep of [0,1)
				if u >= 1 {
					u--
				}
			}
		}),
		run("workload/zipf_draw_binsearch", func(b *testing.B) {
			b.ReportAllocs()
			u := 0.0
			for i := 0; i < b.N; i++ {
				lo, hi := 0, len(cdf)-1
				for lo < hi {
					mid := (lo + hi) / 2
					if cdf[mid] < u*sum {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				sink = lo
				u += 0.6180339887498949
				if u >= 1 {
					u--
				}
			}
		}),
		run("workload/generator_next", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, name := g.Next()
				sink = len(name)
			}
		}),
	}
}

// compilerBench runs the planet-scale tier and reports the workload
// compiler's headline: simulated user-seconds delivered per wall-clock
// second across twelve (population × TTL) day-long cells, 1M–100M users.
type compilerResult struct {
	Cells       int     `json:"cells"`
	WallSeconds float64 `json:"wall_seconds"`
	Throughput  float64 `json:"user_seconds_per_wall_second"`
	Hit10MT300  float64 `json:"hit_10m_ttl300"`
	Amp10MT300  float64 `json:"amp_10m_ttl300"`
}

func compilerBench() compilerResult {
	r := experiments.PlanetScale()
	return compilerResult{
		Cells:       12,
		WallSeconds: r.Metrics["wall_seconds"],
		Throughput:  r.Metrics["throughput_user_seconds_per_wall_second"],
		Hit10MT300:  r.Metrics["hit_10m_ttl300"],
		Amp10MT300:  r.Metrics["amp_10m_ttl300"],
	}
}

// resolveWorld is the two-level delegation world the resolver and farm
// benchmarks walk: root → example.org, one A record.
type resolveWorld struct {
	clock    *simnet.VirtualClock
	net      *simnet.Network
	rootAddr netip.Addr
}

func newResolveWorld(seed int64) *resolveWorld {
	w := &resolveWorld{
		clock:    simnet.NewVirtualClock(),
		net:      simnet.NewNetwork(seed),
		rootAddr: netip.MustParseAddr("192.88.50.1"),
	}
	orgAddr := netip.MustParseAddr("192.88.50.2")
	root := zone.New(dnswire.Root)
	root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "x.example.", 1, 1, 1, 1, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, w.rootAddr.String()),
		dnswire.NewNS("example.org", 172800, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 172800, orgAddr.String()),
	)
	org := zone.New(dnswire.NewName("example.org"))
	org.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "x.example.org", 1, 1, 1, 1, 60),
		dnswire.NewNS("example.org", 86400, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 86400, orgAddr.String()),
		dnswire.NewA("www.example.org", 86400, "192.0.2.80"),
	)
	rootSrv := authoritative.NewServer(dnswire.NewName("a.root-servers.net"), w.clock)
	rootSrv.AddZone(root)
	w.net.Attach(w.rootAddr, rootSrv)
	orgSrv := authoritative.NewServer(dnswire.NewName("ns1.example.org"), w.clock)
	orgSrv.AddZone(org)
	w.net.Attach(orgAddr, orgSrv)
	return w
}

func resolveBenches() []benchResult {
	name := dnswire.NewName("www.example.org")
	return []benchResult{
		run("resolve/cache_hit", func(b *testing.B) {
			w := newResolveWorld(1)
			r := resolver.New(netip.MustParseAddr("10.50.0.1"), resolver.DefaultPolicy(),
				w.net, w.clock, []netip.Addr{w.rootAddr}, 1)
			if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Resolve(name, dnswire.TypeA)
				if err != nil || !res.CacheHit {
					b.Fatal("expected cache hit")
				}
			}
		}),
		run("resolve/cold_walk", func(b *testing.B) {
			w := newResolveWorld(1)
			r := resolver.New(netip.MustParseAddr("10.50.0.1"), resolver.DefaultPolicy(),
				w.net, w.clock, []netip.Addr{w.rootAddr}, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Cache.Flush()
				if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
					b.Fatal(err)
				}
				w.clock.Advance(time.Second)
			}
		}),
		run("resolve/retry_cold_walk", func(b *testing.B) {
			// Full retry plane armed on a healthy network: the happy path
			// must cost the same as resolve/cold_walk (no retries fire, and
			// the plane is allocation-neutral — pinned by
			// TestRetryPlaneAllocNeutral).
			w := newResolveWorld(1)
			pol := resolver.DefaultPolicy()
			pol.Retry = resolver.RetryPolicy{
				Attempts: 4, Backoff: 200 * time.Millisecond, Jitter: 0.5,
				OrderBySRTT: true,
			}
			r := resolver.New(netip.MustParseAddr("10.50.0.1"), pol,
				w.net, w.clock, []netip.Addr{w.rootAddr}, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Cache.Flush()
				res, err := r.Resolve(name, dnswire.TypeA)
				if err != nil {
					b.Fatal(err)
				}
				if res.Retries != 0 {
					b.Fatal("retries fired on a healthy network")
				}
				w.clock.Advance(time.Second)
			}
		}),
		run("farm/resolve_shared", func(b *testing.B) {
			w := newResolveWorld(1)
			f := farm.New(farm.Config{
				Frontends: 8, Topology: farm.Shared, Placement: farm.PlaceRoundRobin,
				Coalesce: true, Policy: resolver.DefaultPolicy(), Seed: 7,
			}, netip.MustParseAddr("10.50.0.1"), w.net, w.clock, []netip.Addr{w.rootAddr})
			if _, err := f.Resolve(name, dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Resolve(name, dnswire.TypeA); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

// sweepBench times the outage sweep (25 independent TTL × outage-regime ×
// policy configurations) serially and with a worker pool, and checks the two runs
// agree. On a single-CPU host the wall-clock speedup is necessarily ≈1; the
// worker count and CPU count are recorded so the number can be read
// honestly.
func sweepBench(probes int) sweepResult {
	const seed = 42
	// At least 4 workers so the parallel driver is exercised (and its
	// determinism checked) even on single-CPU hosts.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}

	// Best of three runs each, to keep scheduler noise out of the ratio.
	time3 := func(w int) (time.Duration, *experiments.Report) {
		best := time.Duration(0)
		var rep *experiments.Report
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			r := experiments.OutageSweep(probes, w, seed)
			if d := time.Since(t0); best == 0 || d < best {
				best, rep = d, r
			}
		}
		return best, rep
	}
	serialDur, serial := time3(1)
	parallelDur, parallel := time3(workers)

	speedup := 0.0
	if parallelDur > 0 {
		speedup = serialDur.Seconds() / parallelDur.Seconds()
	}
	return sweepResult{
		Experiment:      "outage-sweep",
		Configs:         25,
		Probes:          probes,
		SerialSeconds:   serialDur.Seconds(),
		ParallelWorkers: workers,
		ParallelSeconds: parallelDur.Seconds(),
		Speedup:         speedup,
		Deterministic:   serial.Text == parallel.Text,
		Note: fmt.Sprintf("wall-clock speedup is bounded by the host's %d CPU(s); "+
			"cells are independent, so it approaches min(workers, configs) with real cores",
			runtime.NumCPU()),
	}
}

// pressureSweepBench times the cache-pressure grid (20 eviction-policy ×
// cache-size × TTL cells, each an isolated world) serially and fanned out,
// and checks byte-identical reports — the same determinism contract the
// golden test pins.
func pressureSweepBench(queries int) sweepResult {
	const seed = 42
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}

	time3 := func(w int) (time.Duration, []byte) {
		best := time.Duration(0)
		var rep []byte
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			r := experiments.PressureRun(queries, w, seed).JSON()
			if d := time.Since(t0); best == 0 || d < best {
				best, rep = d, r
			}
		}
		return best, rep
	}
	serialDur, serial := time3(1)
	parallelDur, parallel := time3(workers)

	speedup := 0.0
	if parallelDur > 0 {
		speedup = serialDur.Seconds() / parallelDur.Seconds()
	}
	return sweepResult{
		Experiment:      "cache-pressure",
		Configs:         20,
		Probes:          queries,
		SerialSeconds:   serialDur.Seconds(),
		ParallelWorkers: workers,
		ParallelSeconds: parallelDur.Seconds(),
		Speedup:         speedup,
		Deterministic:   string(serial) == string(parallel),
		Note: fmt.Sprintf("queries per cell; wall-clock speedup is bounded by the host's %d CPU(s)",
			runtime.NumCPU()),
	}
}

// loadgenBenches drives the ZDNS-style engine over real loopback sockets:
// raw authoritative serving over UDP and pipelined TCP, and a recursive
// front-end (cache-hot) over UDP — the loopback-QPS numbers the transport
// plane is judged by.
func loadgenBenches(smoke bool) []loadReport {
	udpCount, tcpCount := 100000, 30000
	if smoke {
		udpCount, tcpCount = 2000, 2000
	}
	wl, err := loadgen.ParseWorkload("www.example.org:A")
	if err != nil {
		fatal(err)
	}

	burst := func(scenario string, kind transport.Kind, target netip.AddrPort, count int) loadReport {
		tr, err := transport.New(transport.Config{Kind: kind, Timeout: 3 * time.Second})
		if err != nil {
			fatal(err)
		}
		defer tr.Close()
		res, err := loadgen.Run(loadgen.Config{
			Target:        target,
			Transport:     tr,
			TransportName: kind.String(),
			Workload:      wl,
			Workers:       16,
			Count:         count,
		})
		if err != nil {
			fatal(err)
		}
		return loadReport{Scenario: scenario, Result: res}
	}

	// Raw authoritative serving plane.
	org := zone.New(dnswire.NewName("example.org"))
	org.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "x.example.org", 1, 1, 1, 1, 60),
		dnswire.NewNS("example.org", 86400, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 86400, "192.0.2.1"),
		dnswire.NewA("www.example.org", 86400, "192.0.2.80"),
	)
	auth := authoritative.NewServer(dnswire.NewName("ns1.example.org"), simnet.NewVirtualClock())
	auth.AddZone(org)
	us := &authoritative.UDPServer{Server: auth}
	udpAddr, err := us.Listen("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer us.Close()
	ts := &authoritative.TCPServer{Server: auth}
	tcpAddr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer ts.Close()

	// A recursive front-end over its own loopback socket, iterating into the
	// simulated delegation world; after the first query every answer is a
	// cache hit — the resolverd steady state.
	w := newResolveWorld(1)
	r := resolver.New(netip.MustParseAddr("10.50.0.1"), resolver.DefaultPolicy(),
		w.net, w.clock, []netip.Addr{w.rootAddr}, 1)
	rs := &authoritative.UDPServer{Handler: resolver.Handler{R: r}}
	rsAddr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer rs.Close()

	return []loadReport{
		burst("authoritative/udp", transport.UDP, udpAddr, udpCount),
		burst("authoritative/tcp-pipelined", transport.TCP, tcpAddr, tcpCount),
		burst("resolver-frontend/udp", transport.UDP, rsAddr, udpCount),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func main() {
	out := flag.String("o", "BENCH_PR7.json", "output file ('-' for stdout)")
	smoke := flag.Bool("smoke", false, "CI smoke mode: skip the multi-second sweep timings")
	probes := flag.Int("probes", 120, "probe count per sweep cell")
	flag.Parse()

	rep := report{
		GeneratedBy: "go run ./cmd/benchjson",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Smoke:       *smoke,
		// Measured at commit bdc7bee (pre-optimization main), same
		// referral-sized message and cache workloads.
		BaselineMain: map[string]float64{
			"codec/encode ns_per_op":      1945,
			"codec/encode allocs_per_op":  12,
			"codec/decode ns_per_op":      2637,
			"codec/decode allocs_per_op":  32,
			"cache/put_get ns_per_op":     690.9,
			"cache/put_get allocs_per_op": 5,
			"cache/get_hit ns_per_op":     69.32,
			"cache/get_hit allocs_per_op": 0,
			"name/canonicalize ns_per_op": 132.1,
			"name/canonicalize allocs_op": 2,
		},
	}
	rep.Benchmarks = append(rep.Benchmarks, codecBenches()...)
	rep.Benchmarks = append(rep.Benchmarks, cacheBenches()...)
	rep.Benchmarks = append(rep.Benchmarks, resolveBenches()...)
	rep.Benchmarks = append(rep.Benchmarks, workloadBenches()...)
	rep.Loadgen = loadgenBenches(*smoke)
	cb := compilerBench()
	rep.Compiler = &cb
	if !*smoke {
		rep.Sweeps = append(rep.Sweeps, sweepBench(*probes))
		rep.Sweeps = append(rep.Sweeps, pressureSweepBench(2000))
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks, %d sweeps)\n", *out, len(rep.Benchmarks), len(rep.Sweeps))
}
