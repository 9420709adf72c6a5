package authoritative

import (
	"net"
	"net/netip"
	"sort"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

// udpClient is a connected test client for raw (non-DNS) payloads.
type udpClient struct {
	t    *testing.T
	conn *net.UDPConn
}

func dialUDP(t *testing.T, addr netip.AddrPort) *udpClient {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &udpClient{t: t, conn: conn}
}

func (c *udpClient) send(payload ...byte) {
	c.t.Helper()
	if _, err := c.conn.Write(payload); err != nil {
		c.t.Fatal(err)
	}
}

// expect reads one reply per id within the deadline and checks that the
// first bytes of the replies are exactly ids, in any order.
func (c *udpClient) expect(within time.Duration, ids ...byte) {
	c.t.Helper()
	if err := c.conn.SetReadDeadline(time.Now().Add(within)); err != nil {
		c.t.Fatal(err)
	}
	buf := make([]byte, 64)
	var got []byte
	for range ids {
		n, err := c.conn.Read(buf)
		if err != nil {
			c.t.Fatalf("waiting for replies %v: got %v, then %v", ids, got, err)
		}
		if n > 0 {
			got = append(got, buf[0])
		}
	}
	want := append([]byte(nil), ids...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if string(got) != string(want) {
		c.t.Fatalf("replies %v, want %v", got, want)
	}
}

// expectSilence checks that no reply arrives within d.
func (c *udpClient) expectSilence(d time.Duration) {
	c.t.Helper()
	if err := c.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		c.t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := c.conn.Read(buf); err == nil {
		c.t.Fatalf("unexpected reply %v while the loop should be waiting", buf[:n])
	}
}

// TestUDPServerInlineAllocs pins the inline path: a loopback round trip
// through a handler that allocates nothing costs one allocation, the
// query's copy. The read and the reply take no address allocations and no
// goroutine is started.
func TestUDPServerInlineAllocs(t *testing.T) {
	u := &UDPServer{Inline: true, Handler: simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
		return wire
	})}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	c := dialUDP(t, addr)
	if err := c.conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	q := []byte("0123456789abcdef")
	buf := make([]byte, 64)
	roundTrip := func() {
		if _, err := c.conn.Write(q); err != nil {
			t.Fatal(err)
		}
		if _, err := c.conn.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 1 {
		t.Errorf("inline round trip = %v allocs, want 1 (the query copy)", allocs)
	}
	if u.Handoffs() != 0 || u.Detached() != 0 {
		t.Errorf("handoffs=%d detached=%d without any wait", u.Handoffs(), u.Detached())
	}
}

// blockingHandler answers payload [id, kind]: kind 'f' at once, kind 's'
// after calling Handoff and waiting for release(id).
// Closing done releases every waiting query, so a failing test still
// closes the server.
type blockingHandler struct {
	u       *UDPServer
	started chan byte
	done    chan struct{}
	mu      sync.Mutex
	gates   map[byte]chan struct{}
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{
		started: make(chan byte, 16),
		done:    make(chan struct{}),
		gates:   make(map[byte]chan struct{}),
	}
}

func (h *blockingHandler) gate(id byte) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.gates[id]
	if g == nil {
		g = make(chan struct{})
		h.gates[id] = g
	}
	return g
}

func (h *blockingHandler) release(id byte) { close(h.gate(id)) }

// waitStarted waits until query want is being served and about to wait.
func (h *blockingHandler) waitStarted(t *testing.T, want byte) {
	t.Helper()
	select {
	case got := <-h.started:
		if got != want {
			t.Fatalf("query %d started, want %d", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("query %d never started", want)
	}
}

func (h *blockingHandler) ServeDNS(wire []byte, _ netip.Addr) []byte {
	if len(wire) == 2 && wire[1] == 's' {
		h.u.Handoff()
		h.started <- wire[0]
		select {
		case <-h.gate(wire[0]):
		case <-h.done:
		}
	}
	return wire
}

// TestUDPServerHandoffBackpressure walks the inline loop through a handoff,
// a refusal at MaxInflight, and recovery once a slot frees up.
func TestUDPServerHandoffBackpressure(t *testing.T) {
	h := newBlockingHandler()
	u := &UDPServer{Handler: h, Inline: true, MaxInflight: 2}
	h.u = u
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	defer close(h.done)
	c := dialUDP(t, addr)

	// A waiting query hands the loop off; the next query is answered
	// while it waits.
	c.send(1, 's')
	h.waitStarted(t, 1)
	if got := u.Handoffs(); got != 1 {
		t.Fatalf("handoffs = %d, want 1", got)
	}
	if got := u.Detached(); got != 1 {
		t.Fatalf("detached = %d, want 1", got)
	}
	c.send(2, 'f')
	c.expect(5*time.Second, 2)

	// The loop and one detached serve fill MaxInflight=2: the second
	// waiting query is refused a handoff and holds the loop.
	c.send(3, 's')
	h.waitStarted(t, 3)
	if got := u.Handoffs(); got != 1 {
		t.Fatalf("handoffs = %d at the MaxInflight cap, want 1", got)
	}
	c.send(4, 'f')
	c.expectSilence(100 * time.Millisecond)

	// Freeing the detached serve does not move the loop: query 3 still
	// waits on it, and query 4 behind it.
	h.release(1)
	c.expect(5*time.Second, 1)
	h.release(3)
	c.expect(5*time.Second, 3, 4)

	// With a slot free again, the next waiting query hands off.
	c.send(5, 's')
	h.waitStarted(t, 5)
	if got := u.Handoffs(); got != 2 {
		t.Fatalf("handoffs = %d after recovery, want 2", got)
	}
	c.send(6, 'f')
	c.expect(5*time.Second, 6)
	h.release(5)
	c.expect(5*time.Second, 5)

	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	if got := u.Detached(); got != 0 {
		t.Errorf("detached = %d after Close, want 0", got)
	}
}

// TestUDPServerHandoffAnyCaller hammers the loop with handoffs from the
// serving goroutine, from detached serves calling again, and from a
// goroutine outside the server. Every query must be answered exactly once
// and Close must find no serve left behind; -race checks the read buffer's
// change of owner.
func TestUDPServerHandoffAnyCaller(t *testing.T) {
	var u *UDPServer
	u = &UDPServer{Inline: true, MaxInflight: 4, Handler: simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
		for i := byte(0); i < wire[1]%3; i++ {
			u.Handoff()
			time.Sleep(100 * time.Microsecond)
		}
		return wire
	})}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var outside sync.WaitGroup
	outside.Add(1)
	go func() {
		defer outside.Done()
		for {
			select {
			case <-stop:
				return
			default:
				u.Handoff()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			buf := make([]byte, 16)
			for j := 0; j < perClient; j++ {
				q := []byte{byte(i), byte(j)}
				if _, err := conn.Write(q); err != nil {
					t.Error(err)
					return
				}
				if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
					t.Error(err)
					return
				}
				n, err := conn.Read(buf)
				if err != nil || n != 2 || buf[0] != q[0] || buf[1] != q[1] {
					t.Errorf("client %d query %d: reply %v, %v", i, j, buf[:n], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	outside.Wait()
	if u.Handoffs() == 0 {
		t.Errorf("no handoff happened")
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	if got := u.Detached(); got != 0 {
		t.Errorf("detached = %d after Close, want 0", got)
	}
}
