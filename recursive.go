package dnsttl

import (
	"context"
	"crypto/tls"
	"net/netip"
	"sync/atomic"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/middleware"
	"dnsttl/internal/push"
	"dnsttl/internal/qlog"
)

// RecursiveServer fronts a Client with real-socket listeners — UDP, TCP,
// DoT, and DoH — turning the library into a runnable recursive resolver
// daemon (cmd/resolverd). Each Listen* method is independent; any subset
// may be active.
type RecursiveServer struct {
	Client *Client
	// QueryLog, when non-nil, captures a client-in record as each query
	// arrives and a response-out record (rcode, answer TTL, cache outcome,
	// wall latency) as each response leaves, labeled with the listener's
	// transport ("udp", "tcp", "dot", "doh"). Nil disables capture at the
	// cost of one pointer check per query.
	QueryLog *qlog.Logger

	// push, when set, claims NOTIFY-opcode datagrams on every listener
	// (see EnablePush): the change-feed plane's notifies purge the client's
	// caches instead of being answered as queries. Atomic because
	// EnablePush may race with already-running listeners.
	push atomic.Pointer[push.Subscriber]

	u   *authoritative.UDPServer
	t   *authoritative.TCPServer
	dot *authoritative.TCPServer
	doh *authoritative.DoHServer
}

// transportHandler binds one listener's queries to its qlog tap.
type transportHandler struct {
	rs  *RecursiveServer
	tap *qlog.Tap
}

func (h transportHandler) ServeDNS(wire []byte, from netip.Addr) []byte {
	return h.rs.serveDNS(wire, from, h.tap)
}

// ServeDNS answers one client query through the resolver: decode, resolve
// (cache first), re-stamp the client's transaction ID, encode. Direct
// calls (tests, embedding) log under the "direct" transport label.
func (rs *RecursiveServer) ServeDNS(wire []byte, from netip.Addr) []byte {
	return rs.serveDNS(wire, from, rs.QueryLog.Tap("direct"))
}

func (rs *RecursiveServer) serveDNS(wire []byte, from netip.Addr, tap *qlog.Tap) []byte {
	q, err := dnswire.Decode(wire)
	if err != nil || len(q.Question) == 0 {
		if len(wire) < 12 {
			return nil
		}
		resp := &Message{Header: Header{
			ID: uint16(wire[0])<<8 | uint16(wire[1]), QR: true, RCode: dnswire.RCodeFormErr,
		}}
		out, err := Encode(resp)
		if err != nil {
			return nil
		}
		return out
	}
	if q.Header.Opcode == dnswire.OpcodeNotify && !q.Header.QR {
		if sub := rs.push.Load(); sub != nil {
			// A new serial makes the subscriber pull IXFR before it acks.
			rs.Client.wait.Call()
			return sub.HandleNotifyWire(wire, from)
		}
	}
	name, qtype := q.Q().Name, q.Q().Type
	tap.ClientIn(from, name, qtype)
	var start time.Time
	if tap != nil {
		start = time.Now()
	}
	pres, err := rs.Client.resolveQuery(context.Background(),
		&middleware.Query{Name: name, Type: qtype, Client: from})
	if err != nil || pres == nil || pres.Result == nil {
		if tap != nil {
			tap.ResponseOut(from, name, qtype, RCodeServFail, 0, qlog.OutcomeError, time.Since(start))
		}
		resp := q.Reply()
		resp.Header.RCode = RCodeServFail
		resp.Header.RA = true
		out, _ := Encode(resp)
		return out
	}
	res := pres.Result
	if tap != nil {
		tap.ResponseOut(from, name, qtype, res.Msg.Header.RCode, res.AnswerTTL,
			pipelineOutcome(pres), time.Since(start))
	}
	if pres.Drop {
		// The rate limiter asked for silence: the client sees a timeout,
		// exactly what an attacker flooding a limited bucket deserves.
		return nil
	}
	// A coalesced follower shares its leader's Msg, and both may be encoding
	// at once: stamp this client's header on a copy, never on the shared
	// message.
	msg := *res.Msg
	msg.Header.ID = q.Header.ID
	msg.Header.RD = q.Header.RD
	out, err := dnswire.EncodeWithLimit(&msg, dnswire.MaxEDNSSize)
	if err != nil {
		return nil
	}
	return out
}

// pipelineOutcome maps a pipeline response onto the qlog outcome
// taxonomy: middleware verdicts first (blocked, limited), then the
// resolution trace (coalesced, stale, hit, miss).
func pipelineOutcome(resp *middleware.Response) qlog.Outcome {
	switch resp.Verdict {
	case middleware.VerdictBlocked:
		return qlog.OutcomeBlocked
	case middleware.VerdictLimited:
		return qlog.OutcomeLimited
	case middleware.VerdictCached:
		return qlog.OutcomeHit
	}
	res := resp.Result
	switch {
	case res.Coalesced:
		return qlog.OutcomeCoalesced
	case res.Stale:
		return qlog.OutcomeStale
	case res.CacheHit:
		return qlog.OutcomeHit
	}
	return qlog.OutcomeMiss
}

// ListenUDP binds addr and serves client queries until Close. Queries are
// served on the listener's read loop, so a cache hit costs no goroutine
// start; the Client's wait hook hands the loop to a new goroutine before a
// query waits on the network. With a Registry on the Client, the loop
// reports serve.udp.handoffs and serve.udp.inflight.
func (rs *RecursiveServer) ListenUDP(addr string) (netip.AddrPort, error) {
	u := &authoritative.UDPServer{Handler: transportHandler{rs, rs.QueryLog.Tap("udp")}, Inline: true}
	rs.u = u
	rs.Client.wait.Set(u.Handoff)
	if reg := rs.Client.reg; reg != nil {
		reg.CounterFunc(authoritative.MetricUDPHandoffs, u.Handoffs)
		reg.GaugeFunc(authoritative.MetricUDPInflight, func() float64 { return float64(u.Detached()) })
	}
	return u.Listen(addr)
}

// ListenTCP binds addr for persistent-TCP clients (RFC 7766) until Close.
func (rs *RecursiveServer) ListenTCP(addr string) (netip.AddrPort, error) {
	rs.t = &authoritative.TCPServer{Handler: transportHandler{rs, rs.QueryLog.Tap("tcp")}}
	return rs.t.Listen(addr)
}

// ListenDoT binds addr for DNS-over-TLS clients (RFC 7858) until Close.
func (rs *RecursiveServer) ListenDoT(addr string, cfg *tls.Config) (netip.AddrPort, error) {
	rs.dot = &authoritative.TCPServer{Handler: transportHandler{rs, rs.QueryLog.Tap("dot")}, TLS: cfg}
	return rs.dot.Listen(addr)
}

// ListenDoH binds addr for DNS-over-HTTPS clients (RFC 8484) until Close.
func (rs *RecursiveServer) ListenDoH(addr string, cfg *tls.Config) (netip.AddrPort, error) {
	rs.doh = &authoritative.DoHServer{Handler: transportHandler{rs, rs.QueryLog.Tap("doh")}, TLS: cfg}
	return rs.doh.Listen(addr)
}

// Close stops every active listener.
func (rs *RecursiveServer) Close() error {
	var err error
	if rs.u != nil {
		err = rs.u.Close()
	}
	if rs.t != nil {
		if e := rs.t.Close(); err == nil {
			err = e
		}
	}
	if rs.dot != nil {
		if e := rs.dot.Close(); err == nil {
			err = e
		}
	}
	if rs.doh != nil {
		if e := rs.doh.Close(); err == nil {
			err = e
		}
	}
	return err
}
