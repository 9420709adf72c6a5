package authoritative

import (
	"dnsttl/internal/simnet"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Metric names under which a recursive front-end registers its UDP
// listener's loop telemetry (see RecursiveServer.ListenUDP).
const (
	MetricUDPHandoffs = "serve.udp.handoffs"
	MetricUDPInflight = "serve.udp.inflight"
)

// UDPServer serves a DNS handler over a real UDP socket; it exists so the
// library is usable as an actual nameserver (cmd/authserver), as a
// recursive daemon front-end (cmd/resolverd), and so integration tests can
// exercise the OS network path. Exactly one of Server or Handler must be
// set; Server takes precedence.
//
// How a query is served depends on what may wait. One goroutine, the read
// loop, reads the socket. Server queries never wait, so the loop serves
// each one itself and writes its reply. With Inline set, the loop serves
// Handler queries itself too, and a query about to wait calls Handoff: the
// loop continues on a new goroutine while the caller finishes its query
// and exits. A plain Handler may block anywhere, so each of its queries is
// served on a goroutine of its own. Serving on the goroutine that read the
// query spares a cache hit one goroutine start and one thread wake-up.
type UDPServer struct {
	Server *Server
	// Handler serves queries when Server is nil — any simnet.Handler,
	// e.g. a recursive front-end.
	Handler simnet.Handler
	// Inline serves Handler queries on the read loop. Set it only for a
	// handler that calls Handoff before anything that can wait; otherwise
	// one slow query head-of-line blocks every client behind it.
	Inline bool
	// MaxInflight bounds concurrently served queries (default 512). For a
	// plain Handler it caps the goroutines serving queries; with Inline it
	// caps the read loop plus the serves handed off from it, and Handoff
	// refuses at the cap. Either way the loop then stops reading,
	// so overload backpressure lands in the socket buffer.
	MaxInflight int

	mu     sync.Mutex
	conn   *net.UDPConn
	closed bool
	wg     sync.WaitGroup

	// Read-loop state. buf belongs to whichever goroutine is the loop;
	// armed holds the token of the query the loop is serving inline (0
	// when none), so Handoff can take over exactly that serve.
	sem   chan struct{}
	buf   []byte
	seq   atomic.Uint64
	armed atomic.Uint64

	handoffs atomic.Uint64
	detached atomic.Int64
}

// Handoffs reports how often Handoff moved the read loop to a new
// goroutine.
func (u *UDPServer) Handoffs() uint64 { return u.handoffs.Load() }

// Detached reports the queries being served off the read loop right now:
// handed-off serves with Inline, per-packet goroutines for a plain
// Handler.
func (u *UDPServer) Detached() int64 { return u.detached.Load() }

// Listen binds addr ("127.0.0.1:0" style) and starts serving until Close.
// It returns the bound address.
func (u *UDPServer) Listen(addr string) (netip.AddrPort, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	inflight := u.MaxInflight
	if inflight <= 0 {
		inflight = 512
	}
	u.sem = make(chan struct{}, inflight)
	if u.Server == nil && u.Inline {
		// The read loop serves queries itself, so it holds a slot.
		u.sem <- struct{}{}
	}
	u.buf = make([]byte, 65535)
	u.mu.Lock()
	u.conn = conn
	u.mu.Unlock()
	u.wg.Add(1)
	go u.loop(conn)
	return conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

// loop is the read loop. It returns when the socket closes, or when
// Handoff moved the loop to another goroutine during an inline serve.
func (u *UDPServer) loop(conn *net.UDPConn) {
	defer u.wg.Done()
	for {
		n, from, err := conn.ReadFromUDPAddrPort(u.buf)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		switch {
		case u.Server != nil:
			// serveWire never waits: zone lookup, RRL and qlog are all in
			// memory, and the push hook answers subscriptions and IXFR
			// pulls from its feeds. It keeps nothing of the query past its
			// return (names are copied into strings, the decoded message
			// goes back to its pool), so it reads the query in place.
			reply(conn, u.Server.ServeDNS(u.buf[:n], from.Addr()), from)
		case u.Inline:
			if !u.serveInline(conn, n, from) {
				return
			}
		default:
			u.dispatch(conn, n, from)
		}
	}
}

// serveInline serves one query on the loop goroutine. It reports false
// when Handoff moved the loop during the serve: the caller is then a
// detached serve and must exit once its reply is out.
func (u *UDPServer) serveInline(conn *net.UDPConn, n int, from netip.AddrPort) bool {
	// A detached serve may still read its query after the new loop
	// reuses buf, so the query gets its own copy.
	query := make([]byte, n)
	copy(query, u.buf[:n])
	tok := u.seq.Add(1)
	u.armed.Store(tok)
	resp := u.Handler.ServeDNS(query, from.Addr())
	isLoop := u.armed.CompareAndSwap(tok, 0)
	reply(conn, resp, from)
	if !isLoop {
		u.detached.Add(-1)
		<-u.sem
	}
	return isLoop
}

// dispatch serves one plain-Handler query on a goroutine of its own,
// first waiting for a free MaxInflight slot.
func (u *UDPServer) dispatch(conn *net.UDPConn, n int, from netip.AddrPort) {
	query := make([]byte, n)
	copy(query, u.buf[:n])
	u.sem <- struct{}{}
	u.detached.Add(1)
	u.wg.Add(1)
	go func() {
		defer func() { u.detached.Add(-1); <-u.sem; u.wg.Done() }()
		reply(conn, u.Handler.ServeDNS(query, from.Addr()), from)
	}()
}

// Handoff moves the read loop to a new goroutine when it is serving a
// query inline, so that query may wait without holding up the queries
// behind it; the serving goroutine finishes its query and exits. At the
// MaxInflight cap it does nothing and the query waits on the loop.
//
// Handoff cannot tell which goroutine calls it. A call from a serve that
// was already handed off, or from another listener sharing the handler,
// hands off the loop even though the query the loop is serving will not
// wait; that costs one spare goroutine and nothing else.
func (u *UDPServer) Handoff() {
	tok := u.armed.Load()
	if tok == 0 {
		return
	}
	select {
	case u.sem <- struct{}{}:
	default:
		return
	}
	if !u.armed.CompareAndSwap(tok, 0) {
		// The serve finished, or another Handoff took it.
		<-u.sem
		return
	}
	u.handoffs.Add(1)
	u.detached.Add(1)
	u.mu.Lock()
	conn := u.conn
	u.mu.Unlock()
	// The handed-off serve still counts in wg, so Add cannot race a
	// finished Wait.
	u.wg.Add(1)
	go u.loop(conn)
}

// reply writes resp to the client unless the handler dropped the query.
func reply(conn *net.UDPConn, resp []byte, to netip.AddrPort) {
	if resp != nil {
		_, _ = conn.WriteToUDPAddrPort(resp, to)
	}
}

// Close stops the server and releases the socket.
func (u *UDPServer) Close() error {
	u.mu.Lock()
	u.closed = true
	conn := u.conn
	u.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	u.wg.Wait()
	return err
}

// UDPExchange sends a single wire-format query to addr over real UDP and
// waits up to timeout for a reply. It returns the reply bytes and the
// measured RTT.
func UDPExchange(addr netip.AddrPort, query []byte, timeout time.Duration) ([]byte, time.Duration, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	start := time.Now()
	if err := conn.SetDeadline(start.Add(timeout)); err != nil {
		return nil, 0, err
	}
	if _, err := conn.Write(query); err != nil {
		return nil, 0, err
	}
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	rtt := time.Since(start)
	if err != nil {
		return nil, rtt, fmt.Errorf("authoritative: udp exchange: %w", err)
	}
	return buf[:n], rtt, nil
}
