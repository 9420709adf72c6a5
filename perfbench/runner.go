package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	// setupRuns is how many times a live run sets up from scratch;
	// setup_s is the median. A repro set-up is only a process launch, so
	// it is repeated more often.
	setupRuns      = 5
	reproSetupRuns = 15
	// lateBoundMs invalidates a run whose generator sent its 99th-percentile
	// query later than this after it was due.
	lateBoundMs = 30.0
	// unlinkedBound invalidates a traced run that leaves more than this
	// share of its upstream and auth spans unlinked.
	unlinkedBound = 0.01
	// maxAttempts is how many invalid attempts end a live run.
	maxAttempts = 2
)

type bench struct {
	bin     string
	work    string // scratch directory
	seed    int64
	seconds int
	trace   bool
}

func (b *bench) run(name string) (*outcome, error) {
	w := workloads[name]
	if w == nil && name != "repro" {
		return nil, fmt.Errorf("unknown workload %q (want hot, unique, mixed or repro)", name)
	}
	if b.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(b.work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if w == nil {
		return b.runRepro(dir)
	}
	st := generate(w, b.seed, b.seconds)
	l := &live{b: b, w: w, dir: dir, st: st}
	once := l.timed
	if b.trace {
		once = l.traced
	}
	// A host stall can invalidate one attempt; it is discarded and the run
	// measured once more. A second invalid attempt ends the run.
	for attempt := 1; ; attempt++ {
		out, err := once()
		var ie invalidError
		if errors.As(err, &ie) && attempt < maxAttempts {
			fmt.Printf("%s; measuring again\n", ie.Error())
			continue
		}
		return out, err
	}
}

// live drives one workload against live daemons.
type live struct {
	b   *bench
	w   *workload
	dir string
	st  *stream
}

// pair is one authserver + resolverd (or their traced hosts).
type pair struct {
	auth, res *proc
	resAddr   string
}

func (p *pair) stop() {
	if p.res != nil {
		p.res.stop()
	}
	if p.auth != nil {
		p.auth.stop()
	}
}

// start launches both daemons and returns once they announce their
// listeners. traced runs the seam-traced hosts, writing spans into dir.
func (l *live) start(traced, gctrace bool) (*pair, error) {
	zoneArgs, err := writeZones(l.dir)
	if err != nil {
		return nil, err
	}
	authBin, authArgs := filepath.Join(l.b.bin, "authserver"), []string{}
	resBin, resArgs := filepath.Join(l.b.bin, "resolverd"), []string{}
	if traced {
		authBin, authArgs = filepath.Join(l.b.bin, "perfbench"), []string{"host", "auth", "-spans", filepath.Join(l.dir, "auth.spans")}
		resBin, resArgs = authBin, []string{"host", "resolver", "-spans", filepath.Join(l.dir, "resolver.spans")}
	}
	authArgs = append(authArgs, "-listen", "127.0.0.1:0", "-name", "a.root-servers.net", "-metrics", "127.0.0.1:0")
	authArgs = append(append(authArgs, zoneArgs...), l.w.authArgs...)
	p := &pair{}
	p.auth, err = startProc("authserver", authBin, authArgs, nil, udpBanner, metricsBanner)
	if err != nil {
		return nil, err
	}
	_, port, _ := strings.Cut(p.auth.addr(udpBanner), ":")
	resArgs = append(resArgs, "-listen", "127.0.0.1:0", "-root", "127.0.0.1", "-rootport", port, "-metrics", "127.0.0.1:0")
	resArgs = append(resArgs, l.w.resolverArgs...)
	if l.w.pipeline != "" {
		path := filepath.Join(l.dir, "pipeline.toml")
		if err := os.WriteFile(path, []byte(l.w.pipeline), 0o644); err != nil {
			p.stop()
			return nil, err
		}
		resArgs = append(resArgs, "-pipeline", path)
	}
	if l.w.qlog {
		resArgs = append(resArgs, "-qlog", filepath.Join(l.dir, "query.log"))
	}
	var env []string
	if gctrace {
		env = append(env, "GODEBUG=gctrace=1")
	}
	p.res, err = startProc("resolverd", resBin, resArgs, env, udpBanner, metricsBanner)
	if err != nil {
		p.stop()
		return nil, err
	}
	p.resAddr = p.res.addr(udpBanner)
	return p, nil
}

// setup starts a fresh pair and warms it: zones loaded, listeners
// answering, caches filled. It returns the wall-clock time that took and
// the CPU time both daemons spent on it.
func (l *live) setup(traced, gctrace bool) (*pair, time.Duration, float64, error) {
	t0 := time.Now()
	p, err := l.start(traced, gctrace)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := warm(p.resAddr, l.st.warm); err != nil {
		p.stop()
		return nil, 0, 0, err
	}
	wall := time.Since(t0)
	r, err1 := p.res.cpuNs()
	a, err2 := p.auth.cpuNs()
	if err1 != nil || err2 != nil {
		p.stop()
		return nil, 0, 0, fmt.Errorf("read daemon CPU: %v %v", err1, err2)
	}
	return p, wall, float64(r+a) / 1e9, nil
}

// window is one measured open-loop window and everything read around it.
type window struct {
	load            *loadResult
	cpuRes, cpuAuth int64
	res0, res1      snapshot
	auth0, auth1    snapshot
	rssMB           float64 // median resolverd VmRSS over the window
	resOut          string  // resolverd output printed during the window
}

func (l *live) measure(p *pair) (*window, error) {
	w := &window{}
	var err error
	if w.res0, err = scrape(p.res.addr(metricsBanner)); err != nil {
		return nil, err
	}
	if w.auth0, err = scrape(p.auth.addr(metricsBanner)); err != nil {
		return nil, err
	}
	outStart := len(p.res.output())
	r0, err1 := p.res.cpuNs()
	a0, err2 := p.auth.cpuNs()
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("read daemon CPU: %v %v", err1, err2)
	}
	// Resident memory is sampled through the window: a host stall piles
	// up in-flight queries for a moment, so the peak (VmHWM) measures the
	// host as much as the program.
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() {
		var samples []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopRSS:
				rssDone <- samples
				return
			case <-t.C:
				if mb, err := procStatusMB(p.res.cmd.Process.Pid, "VmRSS:"); err == nil {
					samples = append(samples, mb)
				}
			}
		}
	}()
	w.load, err = runOpenLoop(p.resAddr, l.st)
	close(stopRSS)
	w.rssMB = median(<-rssDone)
	if err != nil {
		return nil, err
	}
	r1, err1 := p.res.cpuNs()
	a1, err2 := p.auth.cpuNs()
	if err1 != nil || err2 != nil {
		return nil, invalidError{fmt.Sprintf("a daemon exited during the window: %v %v", err1, err2)}
	}
	w.cpuRes, w.cpuAuth = r1-r0, a1-a0
	if w.res1, err = scrape(p.res.addr(metricsBanner)); err != nil {
		return nil, err
	}
	if w.auth1, err = scrape(p.auth.addr(metricsBanner)); err != nil {
		return nil, err
	}
	w.resOut = p.res.output()[outStart:]
	http.DefaultClient.CloseIdleConnections()
	for _, d := range []*proc{p.res, p.auth} {
		if !d.alive() {
			return nil, invalidError{fmt.Sprintf("%s exited early: %v\n%s", d.name, d.err, d.output())}
		}
	}
	if late := w.lateP99Ms(); late > lateBoundMs {
		return nil, invalidError{fmt.Sprintf("generator ran late: p99 lateness %.3f ms > %.1f ms bound", late, lateBoundMs)}
	}
	return w, nil
}

func (w *window) lateP99Ms() float64 { return nsToMs(quantile(sortedCopy(w.load.lateness), 0.99)) }

// latencies returns the sorted per-query latencies of the window; a failed
// query counts as the full reply timeout, so it misses any latency limit.
func (w *window) latencies() []int64 {
	all := append([]int64(nil), w.load.latencies...)
	for i := 0; i < w.load.failed; i++ {
		all = append(all, replyTimeout.Nanoseconds())
	}
	return sortedCopy(all)
}

func (w *window) cpuUsPerQuery() float64 {
	return float64(w.cpuRes+w.cpuAuth) / 1e3 / float64(w.load.sent)
}

// timed is a --trace 0 run: setupRuns set-ups, the last of which is
// measured.
func (l *live) timed() (*outcome, error) {
	var setupCPU, setupWall []float64
	var p *pair
	for i := 0; i < setupRuns; i++ {
		var wall time.Duration
		var cpu float64
		var err error
		if p, wall, cpu, err = l.setup(false, false); err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, cpu)
		setupWall = append(setupWall, wall.Seconds())
		if i < setupRuns-1 {
			p.stop()
		}
	}
	defer p.stop()
	w, err := l.measure(p)
	if err != nil {
		return nil, err
	}
	lat := w.latencies()
	n := w.load.sent
	fmt.Printf("%s: %d queries, %d failed", l.w.name, n, w.load.failed)
	for k, c := range w.load.fails {
		if c > 0 {
			fmt.Printf(", %s %d", failNames[k], c)
		}
	}
	fmt.Printf("\nfail_ratio %.6f ratio, auth_queries_per_query %.4f ratio\n",
		float64(w.load.failed)/float64(n), delta(w.auth0, w.auth1, "auth.queries")/float64(n))
	fmt.Printf("latency p50_ms %.4f ms, p99_ms %.4f ms over %d samples; set-up wall time %.3f s; generator lateness p99 %.3f ms (not gated)\n",
		nsToMs(quantile(lat, 0.5)), nsToMs(quantile(lat, 0.99)), len(lat), median(setupWall), w.lateP99Ms())
	return &outcome{
		Correct:   w.load.wrong() == 0,
		Attempted: n, Failed: w.load.failed,
		Metrics: map[string]metric{
			"cpu_us_per_query": {w.cpuUsPerQuery(), "us"},
			"cpu_s":            {float64(w.cpuRes+w.cpuAuth) / 1e9, "s"},
			"rss_mb":           {w.rssMB, "MB"},
			"setup_s":          {median(setupCPU), "s"},
		},
	}, nil
}

// traced is a --trace 1 run: a timed pass (resolverd with gctrace) for the
// counters and the overhead baseline, a traced pass at the seams, and the
// layer ladder on the workload's own inputs.
func (l *live) traced() (*outcome, error) {
	p, _, _, err := l.setup(false, true)
	if err != nil {
		return nil, err
	}
	a, err := l.measure(p)
	p.stop()
	if err != nil {
		return nil, err
	}
	tp, _, _, err := l.setup(true, false)
	if err != nil {
		return nil, err
	}
	t, err := l.measure(tp)
	tp.stop()
	if err != nil {
		return nil, err
	}
	var spans []span
	for _, f := range []string{"resolver.spans", "auth.spans"} {
		s, err := readSpans(filepath.Join(l.dir, f))
		if err != nil {
			return nil, err
		}
		spans = append(spans, s...)
	}
	from := t.load.start.UnixNano()
	to := t.load.end.Add(replyTimeout).UnixNano()
	ts := link(spans, from, to)
	if linkable := ts.upstreams + ts.auths; float64(ts.unlinked) > unlinkedBound*float64(linkable) {
		return nil, invalidError{fmt.Sprintf("traced run left %d of %d upstream/auth spans unlinked (bound %.0f%%)",
			ts.unlinked, linkable, unlinkedBound*100)}
	}

	n := float64(a.load.sent)
	tn := float64(t.load.sent)
	d := func(name string) float64 { return delta(a.res0, a.res1, name) }
	da := func(name string) float64 { return delta(a.auth0, a.auth1, name) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	cycles, pauseMs := gcStats(a.resOut)
	lat := a.latencies()
	tlat := t.latencies()

	m := map[string]float64{
		"recursive.serve_us":              ts.serveNs / 1e3 / tn,
		"recursive.serve_self_us":         ts.serveSelfNs / 1e3 / tn,
		"resolver.upstream_us":            ts.upstreamNs / 1e3 / tn,
		"resolver.upstream_per_query":     float64(ts.upstreams) / tn,
		"auth.serve_us":                   ts.authNs / 1e3 / tn,
		"transport.exchange_self_us":      ts.exchangeSelfNs / 1e3 / tn,
		"udp.socket_us":                   float64(quantile(tlat, 0.5)-ts.serveP50Ns) / 1e3,
		"udp.inflight_max":                float64(ts.inflightMax),
		"udp.inflight_mean":               ratio(ts.inflightSum, float64(ts.serves)),
		"trace.spans":                     float64(ts.serves + ts.upstreams + ts.auths),
		"trace.unlinked":                  float64(ts.unlinked),
		"trace.overhead_cpu_us_per_query": t.cpuUsPerQuery() - a.cpuUsPerQuery(),
		"trace.overhead_p50_ms":           nsToMs(quantile(tlat, 0.5)) - nsToMs(quantile(lat, 0.5)),
		"auth_queries_per_query":          da("auth.queries") / n,
		"cache.hit_ratio":                 ratio(d("resolver.cache_hits"), d("resolver.resolutions")),
		"cache.evictions_per_query":       d("cache.evictions") / n,
		"transport.reuse_ratio":           ratio(d("transport.reuses"), d("transport.exchanges")),
		"transport.errors":                d("transport.errors"),
		"farm.coalesced_per_query":        d("farm.fe*.coalesced") / n,
		"mw.shield.blocked_share":         d("mw.shield.blocked") / n,
		"mw.guard.limited":                d("mw.guard.limited"),
		"mw.once.coalesced_share":         d("mw.once.coalesced") / n,
		"qlog.bytes_per_query":            d("qlog.bytes_written") / n,
		"qlog.dropped":                    d("qlog.dropped"),
		"auth.rrl_passed_per_query":       da("auth.rrl_passed") / n,
		"auth.rrl_dropped":                da("auth.rrl_dropped"),
		"resolverd.cpu_us_per_query":      float64(a.cpuRes) / 1e3 / n,
		"authserver.cpu_us_per_query":     float64(a.cpuAuth) / 1e3 / n,
		"resolverd.gc_cycles_per_kquery":  float64(cycles) / n * 1000,
		"resolverd.gc_pause_ms":           pauseMs,
		"loadgen.p50_ms":                  nsToMs(quantile(lat, 0.5)),
		"loadgen.p99_ms":                  nsToMs(quantile(lat, 0.99)),
		"loadgen.late_ms_p99":             a.lateP99Ms(),
		"loadgen.sent":                    n,
	}
	cells, err := runLadder(l.st, l.dir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s traced: %d serve, %d upstream, %d auth spans, %d unlinked; tracing overhead %+.2f us/query CPU, %+.4f ms p50\n",
		l.w.name, ts.serves, ts.upstreams, ts.auths, ts.unlinked,
		m["trace.overhead_cpu_us_per_query"], m["trace.overhead_p50_ms"])
	out := layerOutcome(m, cells)
	out.Correct = a.load.wrong()+t.load.wrong() == 0
	out.Attempted, out.Failed = a.load.sent+t.load.sent, a.load.failed+t.load.failed
	return out, nil
}

// layerOutcome fills every per-layer metric: measured ones from m and the
// ladder, the rest 0.
func layerOutcome(m map[string]float64, cells map[string]ladderCell) *outcome {
	for e, c := range cells {
		m[e+".ns"], m[e+".bytes"], m[e+".allocs"] = c.ns, c.bytes, c.allocs
	}
	out := &outcome{Metrics: map[string]metric{}}
	for _, def := range perLayer() {
		out.Metrics[def.Name] = metric{m[def.Name], def.Unit}
	}
	return out
}

// gcStats sums the gctrace lines a Go process printed: cycles, and
// stop-the-world pause time in ms (the first and third clock phases).
func gcStats(out string) (int, float64) {
	cycles, pause := 0, 0.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, rest, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		clock, _, _ := strings.Cut(rest, " ms clock")
		phases := strings.Split(clock, "+")
		if len(phases) != 3 {
			continue
		}
		stw1, err1 := strconv.ParseFloat(phases[0], 64)
		stw2, err2 := strconv.ParseFloat(phases[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		cycles++
		pause += stw1 + stw2
	}
	return cycles, pause
}
