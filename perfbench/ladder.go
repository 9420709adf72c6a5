package main

import (
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dnsttl"
	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/middleware"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// The layer ladder times in-process calls into each layer's public entry
// point, on names drawn from the workload's own stream. Alloc counts come
// from a fixed number of calls, so they repeat exactly; ns/op is the median
// of several timed batches.

var ladderEntries = []string{
	"dnswire.decode", "dnswire.encode", "middleware.default", "middleware.hardened",
	"cache.get", "cache.put_lru", "farm.resolve_shared", "recursive.servedns",
	"recursive.servedns_qlog", "auth.servedns", "auth.servedns_rrl",
}

type ladderCell struct{ ns, bytes, allocs float64 }

const (
	ladderNames  = 1024 // distinct inputs each entry cycles through
	allocCalls   = 2000
	timedBatches = 5
	batchTime    = 40 * time.Millisecond
)

// measure runs fn(i) for i = 0, 1, ... and reports per-call cost. The
// first calls, which fill caches, are not measured.
func measure(fn func(i int) error) (ladderCell, error) {
	for i := 0; i < 2*ladderNames; i++ {
		if err := fn(i); err != nil {
			return ladderCell{}, err
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocCalls; i++ {
		if err := fn(i); err != nil {
			return ladderCell{}, err
		}
	}
	runtime.ReadMemStats(&m1)
	cell := ladderCell{
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / allocCalls,
		allocs: float64(m1.Mallocs-m0.Mallocs) / allocCalls,
	}
	var perOp []float64
	i := 0
	for b := 0; b < timedBatches; b++ {
		start := time.Now()
		n := 0
		for time.Since(start) < batchTime {
			for k := 0; k < 64; k++ {
				if err := fn(i); err != nil {
					return ladderCell{}, err
				}
				i++
			}
			n += 64
		}
		perOp = append(perOp, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	sort.Float64s(perOp)
	cell.ns = perOp[len(perOp)/2]
	return cell, nil
}

// ladderWorld is the live workloads' zone set behind an in-memory network
// on a virtual clock: one authoritative server at the root address holding
// every zone, as in the live runs.
type ladderWorld struct {
	clock *simnet.VirtualClock
	net   *simnet.Network
	root  netip.Addr
}

func newLadderWorld() (*ladderWorld, error) {
	w := &ladderWorld{clock: simnet.NewVirtualClock(), net: simnet.NewNetwork(1), root: netip.MustParseAddr("127.0.0.1")}
	srv, err := newAuthServer(w.clock)
	if err != nil {
		return nil, err
	}
	w.net.Attach(w.root, srv)
	return w, nil
}

func newAuthServer(clock simnet.Clock) (*authoritative.Server, error) {
	srv := authoritative.NewServer(dnswire.NewName("a.root-servers.net"), clock)
	for origin, text := range zones {
		z, err := dnsttl.ParseZone(text, dnsttl.NewName(origin))
		if err != nil {
			return nil, err
		}
		srv.AddZone(z)
	}
	return srv, nil
}

// runLadder measures every entry on up to ladderNames distinct queries of
// the stream. tmp receives the query log of recursive.servedns_qlog.
func runLadder(st *stream, tmp string) (map[string]ladderCell, error) {
	seen := map[string]bool{}
	var qs []query
	for _, q := range append(append([]query(nil), st.warm...), st.queries...) {
		if !seen[q.name] && len(qs) < ladderNames {
			seen[q.name] = true
			qs = append(qs, q)
		}
	}
	names := make([]dnswire.Name, len(qs))
	for i, q := range qs {
		names[i] = dnswire.NewName(q.name)
	}
	at := func(i int) int { return i % len(qs) }
	ctx := context.Background()
	client := netip.MustParseAddr("127.0.0.1")
	out := map[string]ladderCell{}
	var firstErr error
	add := func(entry string, fn func(i int) error) {
		if firstErr != nil {
			return
		}
		cell, err := measure(fn)
		if err != nil {
			firstErr = fmt.Errorf("ladder %s: %w", entry, err)
			return
		}
		out[entry] = cell
	}

	responses := make([]*dnswire.Message, len(qs))
	for i, n := range names {
		m := dnswire.NewQuery(uint16(i), n, dnswire.TypeA).Reply()
		m.Header.AA = true
		m.AddAnswer(dnswire.NewA(string(n), 86400, "192.0.2.1"))
		responses[i] = m
	}
	add("dnswire.decode", func(i int) error {
		_, err := dnswire.Decode(qs[at(i)].wire)
		return err
	})
	add("dnswire.encode", func(i int) error {
		_, err := dnswire.EncodeWithLimit(responses[at(i)], dnswire.MaxEDNSSize)
		return err
	})

	// The middleware entries run against a terminal that answers at once,
	// so they time the pipeline alone.
	fixed := &resolver.Result{Msg: responses[0]}
	env := middleware.Env{Lookup: func(dnswire.Name, dnswire.Type) (*resolver.Result, error) { return fixed, nil }}
	for _, mw := range []struct{ entry, spec string }{
		{"middleware.default", ""}, {"middleware.hardened", hardenedPipeline},
	} {
		p, err := middleware.Build(mw.spec, env)
		if err != nil {
			return nil, err
		}
		add(mw.entry, func(i int) error {
			_, err := p.Resolve(ctx, &middleware.Query{Name: names[at(i)], Type: dnswire.TypeA, Client: client})
			return err
		})
	}

	entry := func(n dnswire.Name) cache.Entry {
		return cache.Entry{
			Key:  cache.Key{Name: n, Type: dnswire.TypeA},
			RRs:  []dnswire.RR{dnswire.NewA(string(n), 86400, "192.0.2.1")},
			TTL:  86400,
			Cred: cache.CredAnswerAuth,
		}
	}
	clock := simnet.NewVirtualClock()
	c := cache.New(clock, cache.Config{})
	for _, n := range names {
		c.Put(entry(n))
	}
	add("cache.get", func(i int) error {
		c.Get(names[at(i)], dnswire.TypeA)
		return nil
	})
	// A bound of a sixteenth of the inputs keeps every Put evicting.
	lru := cache.New(clock, cache.Config{Eviction: cache.EvictLRU, MaxBytes: int64(len(names)) * 16})
	add("cache.put_lru", func(i int) error {
		lru.Put(entry(names[at(i)]))
		return nil
	})

	w, err := newLadderWorld()
	if err != nil {
		return nil, err
	}
	f := farm.New(farm.Config{
		Frontends: 4, Topology: farm.Shared, Placement: farm.PlaceHashQName,
		Coalesce: true, Policy: resolver.DefaultPolicy(), Seed: 7,
	}, client, w.net, w.clock, []netip.Addr{w.root})
	add("farm.resolve_shared", func(i int) error {
		_, err := f.Resolve(names[at(i)], dnswire.TypeA)
		return err
	})

	for _, qlogOn := range []bool{false, true} {
		w, err := newLadderWorld()
		if err != nil {
			return nil, err
		}
		cl, err := dnsttl.NewClient(dnsttl.ClientConfig{Roots: []netip.Addr{w.root}, Net: w.net, Clock: w.clock})
		if err != nil {
			return nil, err
		}
		rs := &dnsttl.RecursiveServer{Client: cl}
		name := "recursive.servedns"
		if qlogOn {
			name = "recursive.servedns_qlog"
			format, _ := dnsttl.ParseQueryLogFormat("binary")
			points, _ := dnsttl.ParseQueryLogPoints("all")
			ql, err := dnsttl.NewQueryLog(dnsttl.QueryLogConfig{
				Path: filepath.Join(tmp, "ladder.qlog"), Format: format, Points: points,
			})
			if err != nil {
				return nil, err
			}
			defer ql.Close()
			rs.QueryLog = ql
		}
		add(name, func(i int) error {
			if rs.ServeDNS(qs[at(i)].wire, client) == nil {
				return fmt.Errorf("no reply to %s", qs[at(i)].name)
			}
			return nil
		})
	}

	for _, rrl := range []bool{false, true} {
		srv, err := newAuthServer(nil)
		if err != nil {
			return nil, err
		}
		name := "auth.servedns"
		if rrl {
			name = "auth.servedns_rrl"
			cfg, err := dnsttl.ParseRRLConfig("rps=1000000000,burst=1000000000,slip=2")
			if err != nil {
				return nil, err
			}
			srv.EnableRRL(cfg)
		}
		add(name, func(i int) error {
			if srv.ServeDNS(qs[at(i)].wire, client) == nil {
				return fmt.Errorf("no reply to %s", qs[at(i)].name)
			}
			return nil
		})
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for _, e := range ladderEntries {
		if _, ok := out[e]; !ok {
			return nil, fmt.Errorf("ladder entry %s not measured", e)
		}
	}
	return out, nil
}
