package dnsttl

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
)

// Head-of-line tests for the recursive daemon's UDP listener: it serves
// queries on its read loop, so a query that waits on the network must hand
// the loop off, or every client behind it waits too.

const holRootZone = `
$ORIGIN .
@                  86400 IN SOA a.root-servers.net. nstld.example. 1 1800 900 604800 86400
@                  518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 192.0.2.53
example.org.       172800 IN NS ns1.example.org.
ns1.example.org.   172800 IN A 192.0.2.53
`

// slow.example.org is delegated to 192.0.2.66, a socket that reads
// queries and answers none of them until released.
const holOrgZone = `
$ORIGIN example.org.
@     3600 IN SOA ns1 admin 1 7200 3600 1209600 300
@     3600 IN NS ns1
ns1   3600 IN A 192.0.2.53
www   300  IN A 192.0.2.80
slow  3600 IN NS ns.slow
ns.slow 3600 IN A 192.0.2.66
`

var (
	holAuthAddr = netip.MustParseAddr("192.0.2.53")
	holDeadAddr = netip.MustParseAddr("192.0.2.66")
)

// loopbackNet carries upstream queries to real loopback sockets, one per
// documentation address the zones name.
type loopbackNet map[netip.Addr]netip.AddrPort

func (n loopbackNet) Exchange(_, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	return authoritative.UDPExchange(n[dst], query, 30*time.Second)
}

// silentUpstream reads queries and holds them unanswered until release,
// after which it answers every held and later query with REFUSED.
type silentUpstream struct {
	conn     *net.UDPConn
	mu       sync.Mutex
	released bool
	held     []heldQuery
	done     chan struct{}
}

type heldQuery struct {
	wire []byte
	from netip.AddrPort
}

func newSilentUpstream(t *testing.T) *silentUpstream {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := &silentUpstream{conn: conn, done: make(chan struct{})}
	go s.run()
	t.Cleanup(func() {
		conn.Close()
		<-s.done
	})
	return s
}

func (s *silentUpstream) addr() netip.AddrPort {
	return s.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

func (s *silentUpstream) run() {
	defer close(s.done)
	buf := make([]byte, 4096)
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		q := heldQuery{append([]byte(nil), buf[:n]...), from}
		s.mu.Lock()
		if s.released {
			s.mu.Unlock()
			s.refuse(q)
			continue
		}
		s.held = append(s.held, q)
		s.mu.Unlock()
	}
}

func (s *silentUpstream) refuse(q heldQuery) {
	if len(q.wire) < 12 {
		return
	}
	q.wire[2] |= 0x80                 // QR
	q.wire[3] = q.wire[3]&0xF0 | 0x05 // REFUSED
	_, _ = s.conn.WriteToUDPAddrPort(q.wire, q.from)
}

// waitHeld waits until n queries are held.
func (s *silentUpstream) waitHeld(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.mu.Lock()
		held := len(s.held)
		s.mu.Unlock()
		if held >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent upstream holds %d queries, want %d", held, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *silentUpstream) release() {
	s.mu.Lock()
	s.released = true
	held := s.held
	s.held = nil
	s.mu.Unlock()
	for _, q := range held {
		s.refuse(q)
	}
}

func TestRecursiveServerNoHeadOfLine(t *testing.T) {
	const dedupSpec = `
entry = "once"
[stage.once]
type = "dedup"
next = "r"
[stage.r]
type = "resolver"
`
	for _, tc := range []struct {
		name string
		cfg  ClientConfig
		// coalesced reads how many followers joined a leader.
		coalesced func(MetricsSnapshot) uint64
	}{
		{name: "default"},
		{
			name: "dedup",
			cfg:  ClientConfig{Pipeline: dedupSpec},
			coalesced: func(s MetricsSnapshot) uint64 {
				return s.Counters["mw.once.coalesced"]
			},
		},
		{
			name: "farm-coalesce",
			cfg:  ClientConfig{Frontends: 2, Topology: FarmShared, Placement: FarmPlaceRoundRobin, Coalesce: true},
			coalesced: func(s MetricsSnapshot) uint64 {
				return s.Counters["farm.fe0.coalesced"] + s.Counters["farm.fe1.coalesced"]
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testNoHeadOfLine(t, tc.cfg, tc.coalesced)
		})
	}
}

func testNoHeadOfLine(t *testing.T, cfg ClientConfig, coalesced func(MetricsSnapshot) uint64) {
	auth := NewServer(NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": holRootZone, "example.org": holOrgZone} {
		z, err := ParseZone(text, NewName(origin))
		if err != nil {
			t.Fatal(err)
		}
		auth.AddZone(z)
	}
	authAddr, err := auth.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()
	dead := newSilentUpstream(t)

	cfg.Roots = []netip.Addr{holAuthAddr}
	cfg.Net = loopbackNet{holAuthAddr: authAddr, holDeadAddr: dead.addr()}
	cfg.Registry = NewRegistry(nil)
	client, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client}
	rdAddr, err := rd.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	ask := func(id uint16, name string, timeout time.Duration) (*Message, error) {
		wire, err := Encode(dnswire.NewQuery(id, NewName(name), TypeA))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := authoritative.UDPExchange(rdAddr, wire, timeout)
		if err != nil {
			return nil, err
		}
		return Decode(out)
	}
	inflight := func(want float64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			if cfg.Registry.Snapshot().Gauges[authoritative.MetricUDPInflight] == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %v: %+v", authoritative.MetricUDPInflight, want, cfg.Registry.Snapshot())
			}
			time.Sleep(time.Millisecond)
		}
	}
	handoffs := func() uint64 {
		return cfg.Registry.Snapshot().Counters[authoritative.MetricUDPHandoffs]
	}
	// Warm the cache; the miss hands the loop off once.
	if resp, err := ask(1, "www.example.org", 10*time.Second); err != nil || len(resp.Answer) != 1 {
		t.Fatalf("warm-up: %v, %v", resp, err)
	}
	inflight(0)
	base := handoffs()
	if base == 0 {
		t.Errorf("the warm-up miss never handed the loop off")
	}

	// Two misses for one name under the silent delegation. The first is
	// sent alone and waits on the silent upstream, so it calls the wait
	// hook no more. With a dedup stage or farm coalescing the second is a
	// follower: only the follower's own hook call can free the loop.
	slow := make(chan error, 2)
	miss := func(id uint16) {
		go func() {
			_, err := ask(id, "x.slow.example.org", 30*time.Second)
			slow <- err
		}()
	}
	miss(2)
	dead.waitHeld(t, 1)
	inflight(1)
	miss(3)
	inflight(2)
	if coalesced != nil {
		if got := coalesced(cfg.Registry.Snapshot()); got != 1 {
			t.Errorf("coalesced followers = %d, want 1", got)
		}
	} else {
		dead.waitHeld(t, 2)
	}

	// The cached name is answered while both misses are outstanding.
	start := time.Now()
	resp, err := ask(4, "www.example.org", 2*time.Second)
	if err != nil || len(resp.Answer) != 1 {
		t.Fatalf("cached name behind two outstanding misses: %v, %v", resp, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cached answer took %v behind outstanding misses", elapsed)
	}
	// One handoff per miss; the cache hit was served on the loop.
	if got := handoffs() - base; got != 2 {
		t.Errorf("%s grew by %d, want 2", authoritative.MetricUDPHandoffs, got)
	}

	dead.release()
	for i := 0; i < 2; i++ {
		if err := <-slow; err != nil {
			t.Errorf("released miss: %v", err)
		}
	}
}
