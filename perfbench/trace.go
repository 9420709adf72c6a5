package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dnsttl"
	"dnsttl/internal/authoritative"
)

// The traced run hosts each daemon's stack in its own process, wired
// through the same facade calls and options as cmd/resolverd and
// cmd/authserver, and records spans at three seams that already exist:
//
//   - authoritative.UDPServer.Handler around the RecursiveServer,
//   - ClientConfig.Net around the upstream TransportNet,
//   - authoritative.UDPServer.Handler around the authoritative Server.
//
// No program code changes. The facade's dnsttl.Server does not expose
// ServeDNS, so the authoritative host builds the authoritative.Server that
// dnsttl.NewServer wraps and calls the same methods on it.

// Span kinds.
const (
	spanServe    = "serve"    // RecursiveServer.ServeDNS, one per client query
	spanUpstream = "upstream" // one upstream exchange by the resolver
	spanAuth     = "auth"     // authoritative Server.ServeDNS
)

// span is one timed call at a seam. Times are wall-clock UnixNano, which
// all processes on the host share.
type span struct {
	kind       string
	start, end int64
	id         uint16
	inflight   int32 // concurrent handler calls at entry, this one included
	qname      string
}

// recorder keeps spans in memory until the host exits.
type recorder struct {
	mu       sync.Mutex
	spans    []span
	inflight atomic.Int32
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as one span of the given kind over the query wire.
func (r *recorder) timed(kind string, wire []byte, fn func() []byte) []byte {
	in := r.inflight.Add(1)
	start := time.Now().UnixNano()
	out := fn()
	end := time.Now().UnixNano()
	r.inflight.Add(-1)
	id, qname := wireQuestion(wire)
	r.add(span{kind: kind, start: start, end: end, id: id, inflight: in, qname: qname})
	return out
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s %d %d %d %d %s\n", s.kind, s.start, s.end, s.id, s.inflight, s.qname)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireQuestion extracts the ID and lower-cased first question name.
func wireQuestion(wire []byte) (uint16, string) {
	if len(wire) < 12 {
		return 0, ""
	}
	id := uint16(wire[0])<<8 | uint16(wire[1])
	var b strings.Builder
	for off := 12; off < len(wire); {
		l := int(wire[off])
		if l == 0 || l&0xc0 != 0 || off+1+l > len(wire) {
			break
		}
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strings.ToLower(string(wire[off+1 : off+1+l])))
		off += 1 + l
	}
	return id, b.String()
}

type serveSeam struct {
	rec *recorder
	rs  *dnsttl.RecursiveServer
}

func (h serveSeam) ServeDNS(wire []byte, from netip.Addr) []byte {
	return h.rec.timed(spanServe, wire, func() []byte { return h.rs.ServeDNS(wire, from) })
}

type upstreamSeam struct {
	rec  *recorder
	next dnsttl.Exchanger
}

func (u upstreamSeam) Exchange(src, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	start := time.Now().UnixNano()
	out, rtt, err := u.next.Exchange(src, dst, query)
	end := time.Now().UnixNano()
	id, qname := wireQuestion(query)
	u.rec.add(span{kind: spanUpstream, start: start, end: end, id: id, qname: qname})
	return out, rtt, err
}

type authSeam struct {
	rec *recorder
	srv *authoritative.Server
}

func (h authSeam) ServeDNS(wire []byte, from netip.Addr) []byte {
	return h.rec.timed(spanAuth, wire, func() []byte { return h.srv.ServeDNS(wire, from) })
}

// zoneFlags accumulates repeatable -zone origin=path flags.
type zoneFlags []string

func (z *zoneFlags) String() string     { return strings.Join(*z, ",") }
func (z *zoneFlags) Set(v string) error { *z = append(*z, v); return nil }

// hostMain runs a traced daemon host: "host auth ..." or "host resolver
// ...", with the daemon's own flag names for the options the workloads use.
func hostMain(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("host: want auth or resolver")
	}
	fs := flag.NewFlagSet("host "+args[0], flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "UDP listen address")
	metrics := fs.String("metrics", "", "HTTP address for /metrics")
	spans := fs.String("spans", "", "file the spans are written to on exit")
	rec := &recorder{spans: make([]span, 0, 1<<16)}
	var closeFn func() error
	switch args[0] {
	case "auth":
		name := fs.String("name", "ns1.example.org", "server's own name")
		rrl := fs.String("rrl", "", "response rate limiting")
		var zs zoneFlags
		fs.Var(&zs, "zone", "origin=path to a master file (repeatable)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		srv := authoritative.NewServer(dnsttl.NewName(*name), nil)
		for _, spec := range zs {
			origin, path, _ := strings.Cut(spec, "=")
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			z, err := dnsttl.ParseZone(string(text), dnsttl.NewName(origin))
			if err != nil {
				return err
			}
			srv.AddZone(z)
		}
		reg := dnsttl.NewRegistry(nil)
		srv.Instrument(reg)
		if *rrl != "" {
			cfg, err := dnsttl.ParseRRLConfig(*rrl)
			if err != nil {
				return err
			}
			srv.EnableRRL(cfg)
		}
		u := &authoritative.UDPServer{Handler: authSeam{rec, srv}}
		addr, err := u.Listen(*listen)
		if err != nil {
			return err
		}
		fmt.Printf("serving on udp://%s\n", addr)
		bound, closeMetrics, err := dnsttl.ServeMetrics(*metrics, reg, nil)
		if err != nil {
			return err
		}
		defer closeMetrics()
		fmt.Printf("introspection on http://%s/metrics\n", bound)
		closeFn = u.Close
	case "resolver":
		roots := fs.String("root", "", "root server address")
		rootPort := fs.Uint("rootport", 53, "port for upstream servers")
		frontends := fs.Int("frontends", 1, "farm frontends")
		topology := fs.String("cache-topology", "shared", "farm cache topology")
		placement := fs.String("placement", "random", "farm query placement")
		cacheBytes := fs.Int64("cache-bytes", 0, "cache memory bound in bytes")
		eviction := fs.String("eviction", "fifo", "cache eviction policy")
		pipeline := fs.String("pipeline", "", "middleware graph spec file")
		qlogPath := fs.String("qlog", "", "query-log file")
		qlogFormat := fs.String("qlog-format", "jsonl", "query-log encoding")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		root, err := netip.ParseAddr(*roots)
		if err != nil {
			return err
		}
		evict, err := dnsttl.ParseEvictionPolicy(*eviction)
		if err != nil {
			return err
		}
		// The policy resolverd builds from its flag defaults.
		pol := dnsttl.DefaultPolicy()
		pol.TTLCap = 604800
		pol.Retry = dnsttl.RetryPolicy{Jitter: 0.5}
		cfg := dnsttl.ClientConfig{
			Policy:     pol,
			Roots:      []netip.Addr{root},
			Frontends:  *frontends,
			Coalesce:   true,
			CacheBytes: *cacheBytes,
			Eviction:   evict,
			Registry:   dnsttl.NewRegistry(nil),
			Tracer:     dnsttl.NewTracer(nil),
		}
		var qlogger *dnsttl.QueryLog
		if *qlogPath != "" {
			format, err := dnsttl.ParseQueryLogFormat(*qlogFormat)
			if err != nil {
				return err
			}
			points, _ := dnsttl.ParseQueryLogPoints("all")
			qlogger, err = dnsttl.NewQueryLog(dnsttl.QueryLogConfig{
				Path: *qlogPath, Format: format, Points: points, Registry: cfg.Registry,
			})
			if err != nil {
				return err
			}
			defer qlogger.Close()
		}
		kind, _ := dnsttl.ParseTransportKind("udp")
		upstream, err := dnsttl.NewTransportNet(kind, dnsttl.TransportOptions{
			Port: uint16(*rootPort), Registry: cfg.Registry,
		})
		if err != nil {
			return err
		}
		defer upstream.Close()
		cfg.Net = upstreamSeam{rec, upstream}
		if *frontends > 1 {
			if cfg.Topology, err = dnsttl.ParseFarmTopology(*topology); err != nil {
				return err
			}
			if cfg.Placement, err = dnsttl.ParseFarmPlacement(*placement); err != nil {
				return err
			}
		}
		if *pipeline != "" {
			spec, err := os.ReadFile(*pipeline)
			if err != nil {
				return err
			}
			cfg.Pipeline = string(spec)
		}
		cfg.QueryLog = qlogger.Tap("udp")
		client, err := dnsttl.NewClient(cfg)
		if err != nil {
			return err
		}
		rs := &dnsttl.RecursiveServer{Client: client, QueryLog: qlogger}
		u := &authoritative.UDPServer{Handler: serveSeam{rec, rs}}
		addr, err := u.Listen(*listen)
		if err != nil {
			return err
		}
		hist := dnsttl.NewMetricsHistory(cfg.Registry, 0)
		hist.Start(10 * time.Second)
		defer hist.Stop()
		bound, closeMetrics, err := dnsttl.ServeMetricsWith(*metrics, cfg.Registry, cfg.Tracer, hist)
		if err != nil {
			return err
		}
		defer closeMetrics()
		fmt.Printf("introspection on http://%s/metrics and /trace\n", bound)
		fmt.Printf("recursive resolver on udp://%s (traced host)\n", addr)
		closeFn = u.Close
	default:
		return fmt.Errorf("host: unknown kind %q", args[0])
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := closeFn(); err != nil {
		return err
	}
	if *spans == "" {
		return nil
	}
	return rec.write(*spans)
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fl := strings.Fields(sc.Text())
		if len(fl) < 5 {
			return nil, fmt.Errorf("%s: bad span line %q", path, sc.Text())
		}
		start, err1 := strconv.ParseInt(fl[1], 10, 64)
		end, err2 := strconv.ParseInt(fl[2], 10, 64)
		id, err3 := strconv.ParseUint(fl[3], 10, 16)
		in, err4 := strconv.ParseInt(fl[4], 10, 32)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return nil, fmt.Errorf("%s: bad span line %q: %w", path, sc.Text(), err)
		}
		s := span{kind: fl[0], start: start, end: end, id: uint16(id), inflight: int32(in)}
		if len(fl) > 5 {
			s.qname = fl[5]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// traceStats is what the linked spans of one window say per layer.
type traceStats struct {
	serveNs, serveSelfNs, upstreamNs, authNs, exchangeSelfNs float64
	serves, upstreams, auths                                 int
	inflightMax                                              int32
	inflightSum                                              float64
	unlinked                                                 int
	serveP50Ns                                               int64
}

// link joins the window's spans. An upstream span links to the auth span
// with its DNS ID and qname that lies inside it, and to the serve span for
// its qname whose interval contains it. Spans left without a partner are
// counted as unlinked.
func link(spans []span, from, to int64) traceStats {
	var st traceStats
	var serves, ups, auths []span
	for _, s := range spans {
		if s.start < from || s.start > to {
			continue
		}
		switch s.kind {
		case spanServe:
			serves = append(serves, s)
		case spanUpstream:
			ups = append(ups, s)
		case spanAuth:
			auths = append(auths, s)
		}
	}
	type key struct {
		id    uint16
		qname string
	}
	authBy := map[key][]int{}
	for i, a := range auths {
		k := key{a.id, a.qname}
		authBy[k] = append(authBy[k], i)
	}
	serveBy := map[string][]int{}
	for i, s := range serves {
		serveBy[s.qname] = append(serveBy[s.qname], i)
	}
	authUsed := make([]bool, len(auths))
	for _, u := range ups {
		d := float64(u.end - u.start)
		st.upstreamNs += d
		linkedAuth := false
		for _, i := range authBy[key{u.id, u.qname}] {
			a := auths[i]
			if !authUsed[i] && a.start >= u.start && a.end <= u.end {
				authUsed[i] = true
				st.exchangeSelfNs += d - float64(a.end-a.start)
				linkedAuth = true
				break
			}
		}
		if !linkedAuth {
			st.unlinked++
		}
		linkedServe := false
		for _, i := range serveBy[u.qname] {
			s := serves[i]
			if s.start <= u.start && u.end <= s.end {
				st.serveSelfNs -= d
				linkedServe = true
				break
			}
		}
		if !linkedServe {
			st.unlinked++
		}
	}
	for i, a := range auths {
		st.authNs += float64(a.end - a.start)
		if !authUsed[i] {
			st.unlinked++
		}
	}
	durs := make([]int64, 0, len(serves))
	for _, s := range serves {
		durs = append(durs, s.end-s.start)
		d := float64(s.end - s.start)
		st.serveNs += d
		st.serveSelfNs += d
		st.inflightSum += float64(s.inflight)
		if s.inflight > st.inflightMax {
			st.inflightMax = s.inflight
		}
	}
	st.serves, st.upstreams, st.auths = len(serves), len(ups), len(auths)
	st.serveP50Ns = quantile(sortedCopy(durs), 0.5)
	return st
}
