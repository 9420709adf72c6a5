package transport

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"

	"dnsttl/internal/dnswire"
)

// udpReadSize is one byte more than the EDNS payload size the resolver
// advertises: a datagram that fills the buffer is larger than anything a
// conforming server may send, and is never passed up cut off.
const udpReadSize = dnswire.MaxEDNSSize + 1

// errOversize reports a UDP answer larger than the advertised EDNS size.
// Like a TC answer it is retried over TCP; without the fallback the
// exchange fails.
var errOversize = errors.New("transport: UDP answer exceeds the advertised EDNS size")

// udpConn is one pooled connected UDP socket with its owned read buffer —
// the socket is held exclusively for the duration of an exchange, so the
// buffer is never shared.
type udpConn struct {
	c    *net.UDPConn
	buf  []byte
	last time.Time
}

// udpTransport exchanges over pooled connected UDP sockets, falling back
// to the pipelined TCP transport when a response arrives truncated
// (RFC 1035 §4.2.1). Pooling the sockets matters at load-generator rates:
// a fresh socket per query costs two extra syscalls and a port allocation.
//
// Every healthy socket goes back on its upstream's LIFO stack, so the
// stack grows to the peak number of concurrent exchanges and a burst
// finds the sockets the previous one opened. Sockets idle longer than
// IdleTimeout sit at the bottom of the stack and are closed from there;
// PoolSize does not apply to UDP.
type udpTransport struct {
	cfg Config
	m   *Metrics
	tcp *streamTransport // truncation fallback; nil when disabled

	mu     sync.Mutex
	idle   map[netip.AddrPort][]*udpConn
	closed bool
}

func newUDPTransport(cfg Config) *udpTransport {
	u := &udpTransport{
		cfg:  cfg,
		m:    cfg.Metrics.orNil(),
		idle: make(map[netip.AddrPort][]*udpConn),
	}
	if !cfg.DisableTCPFallback {
		u.tcp = newTCPTransport(cfg)
	}
	return u
}

// reapLocked closes the sockets at the bottom of server's stack that have
// been idle longer than IdleTimeout and returns what is left.
func (u *udpTransport) reapLocked(server netip.AddrPort, now time.Time) []*udpConn {
	list := u.idle[server]
	n := 0
	for n < len(list) && now.Sub(list[n].last) > u.cfg.IdleTimeout {
		_ = list[n].c.Close()
		n++
	}
	if n > 0 {
		kept := copy(list, list[n:])
		clear(list[kept:])
		list = list[:kept]
		u.idle[server] = list
	}
	return list
}

// get pops the most recently used socket for server or dials a new one.
func (u *udpTransport) get(server netip.AddrPort) (*udpConn, error) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil, errConnClosed
	}
	if list := u.reapLocked(server, time.Now()); len(list) > 0 {
		uc := list[len(list)-1]
		list[len(list)-1] = nil
		u.idle[server] = list[:len(list)-1]
		u.mu.Unlock()
		u.m.Reuses.Inc()
		return uc, nil
	}
	u.mu.Unlock()
	c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		u.m.DialErrors.Inc()
		return nil, err
	}
	u.m.Dials.Inc()
	return &udpConn{c: c, buf: make([]byte, udpReadSize)}, nil
}

// put pushes a healthy socket back on server's stack.
func (u *udpTransport) put(server netip.AddrPort, uc *udpConn) {
	uc.last = time.Now()
	u.mu.Lock()
	if !u.closed {
		u.idle[server] = append(u.reapLocked(server, uc.last), uc)
		u.mu.Unlock()
		return
	}
	u.mu.Unlock()
	_ = uc.c.Close()
}

// Exchange implements Transport: write the query on a pooled connected
// socket, read until a response with the query's message ID arrives (late
// answers to earlier timed-out queries are dropped), and retry truncated
// or oversize answers over TCP.
func (u *udpTransport) Exchange(server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	u.m.Exchanges.Inc()
	resp, rtt, err := u.exchangeUDP(server, query)
	truncated := err == nil && resp[2]&0x02 != 0
	if (truncated || errors.Is(err, errOversize)) && u.tcp != nil {
		u.m.TCPFallbacks.Inc()
		tcpResp, tcpRTT, tcpErr := u.tcp.Exchange(server, query)
		if tcpErr == nil {
			return tcpResp, rtt + tcpRTT, nil
		}
		// A truncated UDP answer is still an answer; serve it rather than
		// failing the exchange, as the classic resolver path does. An
		// oversize one was cut off in the read, so nothing is left to serve.
		if err != nil {
			err = tcpErr
		}
	}
	if err != nil {
		u.m.Errors.Inc()
		return nil, rtt, err
	}
	u.m.RTT.ObserveDuration(rtt)
	return resp, rtt, nil
}

func (u *udpTransport) exchangeUDP(server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	if len(query) < 12 {
		return nil, 0, errors.New("transport: query shorter than a DNS header")
	}
	uc, err := u.get(server)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	deadline := start.Add(u.cfg.Timeout)
	_ = uc.c.SetDeadline(deadline)
	if _, err := uc.c.Write(query); err != nil {
		_ = uc.c.Close()
		return nil, time.Since(start), err
	}
	for {
		n, err := uc.c.Read(uc.buf)
		if err != nil {
			_ = uc.c.Close()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = ErrTimeout
			}
			return nil, time.Since(start), err
		}
		if n < 12 || uc.buf[0] != query[0] || uc.buf[1] != query[1] {
			// A stray datagram: wrong ID (a late answer from a previous
			// occupant of this socket) or too short to be DNS. Keep
			// listening until our answer or the deadline.
			u.m.IDMismatches.Inc()
			continue
		}
		rtt := time.Since(start)
		if n == len(uc.buf) {
			u.put(server, uc)
			return nil, rtt, errOversize
		}
		resp := make([]byte, n)
		copy(resp, uc.buf[:n])
		u.put(server, uc)
		return resp, rtt, nil
	}
}

// Close implements Transport.
func (u *udpTransport) Close() error {
	u.mu.Lock()
	u.closed = true
	idle := u.idle
	u.idle = make(map[netip.AddrPort][]*udpConn)
	u.mu.Unlock()
	for _, list := range idle {
		for _, uc := range list {
			_ = uc.c.Close()
		}
	}
	if u.tcp != nil {
		return u.tcp.Close()
	}
	return nil
}
