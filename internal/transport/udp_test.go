package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// udpResponder is a raw loopback UDP server. With a nil reply it echoes
// each query in place with QR set, allocating nothing; otherwise reply
// returns the datagrams to send back. While batch is above 1, replies are
// held until that many queries have arrived, which forces that many
// exchanges to be in flight at once.
type udpResponder struct {
	conn  *net.UDPConn
	batch atomic.Int32
	reply func(query []byte) [][]byte
}

type heldQuery struct {
	query []byte
	from  netip.AddrPort
}

func startUDPResponder(t *testing.T, batch int, reply func([]byte) [][]byte) (*udpResponder, netip.AddrPort) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r := &udpResponder{conn: conn, reply: reply}
	r.batch.Store(int32(batch))
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.serve()
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return r, conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

func (r *udpResponder) serve() {
	buf := make([]byte, 65535)
	var held []heldQuery
	for {
		n, from, err := r.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if n < 12 {
			continue
		}
		if batch := int(r.batch.Load()); batch > 1 {
			held = append(held, heldQuery{query: append([]byte(nil), buf[:n]...), from: from})
			if len(held) < batch {
				continue
			}
			for _, h := range held {
				r.answer(h.query, h.from)
			}
			held = held[:0]
			continue
		}
		r.answer(buf[:n], from)
	}
}

func (r *udpResponder) answer(query []byte, to netip.AddrPort) {
	if r.reply == nil {
		query[2] |= 0x80
		_, _ = r.conn.WriteToUDPAddrPort(query, to)
		return
	}
	for _, d := range r.reply(query) {
		_, _ = r.conn.WriteToUDPAddrPort(d, to)
	}
}

// padded returns query with QR set, extended with fill bytes to size.
func padded(query []byte, size int, fill byte) []byte {
	out := bytes.Repeat([]byte{fill}, size)
	copy(out, query)
	out[2] |= 0x80
	return out
}

// burst runs n concurrent exchanges with distinct IDs and waits for all.
func burst(t *testing.T, tr Transport, addr netip.AddrPort, n int, base uint16) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		q := encodedQuery(t, base+uint16(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, err := tr.Exchange(addr, q)
			if err == nil && (resp[0] != q[0] || resp[1] != q[1]) {
				err = fmt.Errorf("answer for ID %#x carries ID %#x", q[:2], resp[:2])
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestUDPBurstReuse sends three bursts of 4×PoolSize concurrent exchanges;
// the sockets the first burst opened must serve the next two.
func TestUDPBurstReuse(t *testing.T) {
	const size = 4 * DefaultPoolSize
	_, addr := startUDPResponder(t, size, nil)
	m := NewMetrics(obs.NewRegistry(nil))
	tr, err := New(Config{Kind: UDP, Timeout: 3 * time.Second, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	burst(t, tr, addr, size, 0x1000)
	dials := m.Dials.Value()
	if dials != size {
		t.Fatalf("first burst dialed %d sockets, want %d", dials, size)
	}
	burst(t, tr, addr, size, 0x2000)
	burst(t, tr, addr, size, 0x3000)
	if got := m.Dials.Value(); got != dials {
		t.Errorf("Dials grew from %d to %d after the first burst; the burst's sockets must be kept", dials, got)
	}
	if got, want := m.Reuses.Value(), uint64(2*size); got != want {
		t.Errorf("Reuses = %d, want %d", got, want)
	}
	if got := m.Errors.Value(); got != 0 {
		t.Errorf("Errors = %d, want 0", got)
	}
}

// TestUDPIdleReap checks that after a pause longer than IdleTimeout the
// next exchange closes the sockets a burst left behind.
func TestUDPIdleReap(t *testing.T) {
	const size = 4 * DefaultPoolSize
	r, addr := startUDPResponder(t, size, nil)
	m := NewMetrics(obs.NewRegistry(nil))
	idle := 100 * time.Millisecond
	u := newUDPTransport(Config{Timeout: 3 * time.Second, IdleTimeout: idle, Metrics: m}.withDefaults())
	defer u.Close()

	burst(t, u, addr, size, 0x1000)
	u.mu.Lock()
	stale := append([]*udpConn(nil), u.idle[addr]...)
	u.mu.Unlock()
	if len(stale) != size {
		t.Fatalf("after the burst %d sockets are kept, want %d", len(stale), size)
	}

	r.batch.Store(1)
	time.Sleep(3 * idle)
	burst(t, u, addr, 1, 0x2000)

	u.mu.Lock()
	kept := len(u.idle[addr])
	u.mu.Unlock()
	if kept != 1 {
		t.Errorf("after the pause %d sockets are kept, want 1", kept)
	}
	if got := m.Dials.Value(); got != size+1 {
		t.Errorf("Dials = %d, want %d (the exchange after the pause dials afresh)", got, size+1)
	}
	for i, uc := range stale {
		if _, err := uc.c.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
			t.Errorf("burst socket %d still open after the idle timeout (write err %v)", i, err)
		}
	}
}

// TestUDPOversizeAnswer serves a 5,000-byte UDP answer, larger than the
// advertised EDNS size: it is retried over TCP, fails the exchange when the
// fallback is off, and an oversize stray with the wrong ID is dropped.
func TestUDPOversizeAnswer(t *testing.T) {
	const size = 5000
	_, addr := startUDPResponder(t, 1, func(q []byte) [][]byte {
		return [][]byte{padded(q, size, 0x55)}
	})
	ts := &authoritative.TCPServer{Handler: simnet.HandlerFunc(func(q []byte, _ netip.Addr) []byte {
		return padded(q, size, 0xAA)
	})}
	if _, err := ts.Listen(fmt.Sprintf("127.0.0.1:%d", addr.Port())); err != nil {
		t.Fatalf("binding TCP on the UDP port: %v", err)
	}
	defer ts.Close()

	t.Run("tcp fallback", func(t *testing.T) {
		m := NewMetrics(obs.NewRegistry(nil))
		tr, err := New(Config{Kind: UDP, Timeout: 3 * time.Second, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		q := encodedQuery(t, 0x0A0B)
		resp, _, err := tr.Exchange(addr, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := padded(q, size, 0xAA); !bytes.Equal(resp, want) {
			t.Errorf("got %d bytes, want the %d-byte TCP answer", len(resp), len(want))
		}
		if got := m.TCPFallbacks.Value(); got != 1 {
			t.Errorf("TCPFallbacks = %d, want 1", got)
		}
		if got := m.Errors.Value(); got != 0 {
			t.Errorf("Errors = %d, want 0", got)
		}
	})

	t.Run("fallback disabled", func(t *testing.T) {
		m := NewMetrics(obs.NewRegistry(nil))
		tr, err := New(Config{Kind: UDP, Timeout: 3 * time.Second, DisableTCPFallback: true, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		resp, _, err := tr.Exchange(addr, encodedQuery(t, 0x0A0C))
		if err == nil {
			t.Fatalf("oversize answer without TCP fallback returned %d bytes, want an error", len(resp))
		}
		if got := m.Errors.Value(); got != 1 {
			t.Errorf("Errors = %d, want 1", got)
		}
	})
}

// TestUDPOversizeStray drops an oversize datagram with the wrong ID and
// still returns the real answer that follows it.
func TestUDPOversizeStray(t *testing.T) {
	_, addr := startUDPResponder(t, 1, func(q []byte) [][]byte {
		stray := padded(q, 5000, 0x55)
		stray[0] ^= 0xFF
		return [][]byte{stray, padded(q, len(q), 0)}
	})
	m := NewMetrics(obs.NewRegistry(nil))
	tr, err := New(Config{Kind: UDP, Timeout: 3 * time.Second, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	q := encodedQuery(t, 0x0D0E)
	resp, _, err := tr.Exchange(addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := padded(q, len(q), 0); !bytes.Equal(resp, want) {
		t.Errorf("got %d bytes %x..., want the echoed answer", len(resp), resp[:min(len(resp), 4)])
	}
	if got := m.IDMismatches.Value(); got != 1 {
		t.Errorf("IDMismatches = %d, want 1", got)
	}
	if got := m.TCPFallbacks.Value(); got != 0 {
		t.Errorf("TCPFallbacks = %d, want 0", got)
	}
}

// TestUDPExchangeAllocs pins a warm serial exchange to one allocation: the
// response copy handed to the caller.
func TestUDPExchangeAllocs(t *testing.T) {
	_, addr := startUDPResponder(t, 1, nil)
	tr, err := New(Config{Kind: UDP, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	q := encodedQuery(t, 0x4242)
	if _, _, err := tr.Exchange(addr, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := tr.Exchange(addr, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm UDP Exchange = %v allocs/op, want 1", allocs)
	}
}
