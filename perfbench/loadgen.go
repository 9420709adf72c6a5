package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Failure kinds the checker distinguishes. Every one counts in fail_ratio.
const (
	failTimeout   = iota // no reply within the timeout
	failMalformed        // undecodable reply, or QR bit clear
	failMismatch         // reply ID matches no sent query, or question differs
	failRCode            // SERVFAIL, REFUSED, or an rcode other than the class expects
	failAnswer           // NOERROR without the class's A 192.0.2.x answer
	numFailKinds
)

var failNames = [numFailKinds]string{"timeout", "malformed", "mismatch", "rcode", "answer"}

// replyTimeout is how long a query may wait for its answer.
const replyTimeout = 2 * time.Second

// loadResult is one measured window, judged query by query.
type loadResult struct {
	sent      int
	failed    int
	fails     [numFailKinds]int
	latencies []int64 // recv - send, ns, answered queries only (failed ones excluded)
	lateness  []int64 // send - due, ns, every query
	start     time.Time
	end       time.Time
}

// reply is what the receiver saw for one query.
type reply struct {
	recvNs  int64 // wall clock UnixNano; 0 = none
	verdict int8  // -1 ok, else a fail kind
}

// runOpenLoop sends st's queries to addr on schedule from one socket: one
// goroutine sends without ever waiting for replies, one receives. A stall
// in the server therefore cannot delay later sends; latency is receive
// time minus each query's actual send time.
func runOpenLoop(addr string, st *stream) (*loadResult, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20) // best effort; the kernel may cap it

	// The kernel stamps each reply as it reaches the socket, so the
	// receive time does not include the generator's own scheduling delay.
	if err := enableRxTimestamps(conn); err != nil {
		return nil, err
	}

	n := len(st.queries)
	sendNs := make([]int64, n)   // monotonic, ns since start: schedule lateness
	sendWall := make([]int64, n) // wall clock, comparable with kernel stamps
	replies := make([]reply, n)
	var sent atomic.Int64 // queries [0, sent) are on the wire
	start := time.Now()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 65535)
		oob := make([]byte, 128)
		for got := 0; got < n; {
			m, oobn, _, _, err := conn.ReadMsgUDP(buf, oob)
			if err != nil {
				if errors.Is(err, net.ErrClosed) || isTimeout(err) {
					return
				}
				continue
			}
			recv, ok := rxTimestamp(oob[:oobn])
			if !ok {
				recv = time.Now().UnixNano()
			}
			i, v := judge(buf[:m], st.queries, int(sent.Load()))
			if i < 0 {
				continue // unattributable: counted when its query times out
			}
			if replies[i].recvNs != 0 {
				continue // duplicate
			}
			replies[i] = reply{recvNs: recv, verdict: v}
			got++
		}
	}()

	var sendErr error
	for i := 0; i < n; i++ {
		if d := time.Duration(st.due[i] - time.Since(start).Nanoseconds()); d > 0 {
			time.Sleep(d)
		}
		sendNs[i] = time.Since(start).Nanoseconds()
		sent.Store(int64(i + 1))
		sendWall[i] = time.Now().UnixNano()
		if _, err := conn.Write(st.queries[i].wire); err != nil && sendErr == nil {
			sendErr = fmt.Errorf("send query %d: %w", i, err)
		}
	}
	end := time.Now()
	// Let the last replies arrive; the reader stops at the deadline, or at
	// once if the deadline cannot be set.
	if err := conn.SetReadDeadline(end.Add(replyTimeout)); err != nil {
		conn.Close()
	}
	wg.Wait()
	if sendErr != nil {
		return nil, sendErr
	}
	res := analyze(st, sendNs, sendWall, replies)
	res.start, res.end = start, end
	return res, nil
}

// wrong counts replies that arrived but were not the right answer; a
// timeout is a failure, not a wrong answer.
func (r *loadResult) wrong() int {
	return r.failed - r.fails[failTimeout]
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// analyze judges every query from its send times and reply.
func analyze(st *stream, sendNs, sendWall []int64, replies []reply) *loadResult {
	n := len(st.queries)
	res := &loadResult{sent: n, lateness: make([]int64, n), latencies: make([]int64, 0, n)}
	for i := 0; i < n; i++ {
		res.lateness[i] = sendNs[i] - st.due[i]
		r := replies[i]
		lat := r.recvNs - sendWall[i]
		switch {
		case r.recvNs == 0 || lat > replyTimeout.Nanoseconds():
			res.fails[failTimeout]++
		case r.verdict >= 0:
			res.fails[r.verdict]++
		default:
			res.latencies = append(res.latencies, lat)
			continue
		}
		res.failed++
	}
	return res
}

// judge attributes a reply to its query and checks it. The query is the
// latest one sent whose ID is the reply's (IDs wrap every 65536 queries);
// its question must match. It returns the query index (-1 when none) and
// the verdict (-1 = correct).
func judge(pkt []byte, qs []query, sent int) (int, int8) {
	if len(pkt) < 12 {
		return -1, 0
	}
	id := int(binary.BigEndian.Uint16(pkt))
	if sent <= id {
		return -1, 0
	}
	i := id + (sent-1-id)/65536*65536
	q := qs[i]
	return i, check(pkt, q)
}

// check validates one reply against the query's answer class with an
// independent minimal parser, so a codec bug cannot hide itself.
func check(pkt []byte, q query) int8 {
	flags := binary.BigEndian.Uint16(pkt[2:])
	if flags&0x8000 == 0 {
		return failMalformed
	}
	qd := binary.BigEndian.Uint16(pkt[4:])
	an := int(binary.BigEndian.Uint16(pkt[6:]))
	if qd != 1 {
		return failMismatch
	}
	// The question must echo the query's name, type and class.
	qlen := len(q.wire) - 12
	if len(pkt) < 12+qlen || !equalFoldASCII(pkt[12:12+qlen], q.wire[12:]) {
		return failMismatch
	}
	rcode := flags & 0xf
	switch q.class {
	case classNX, classBlock:
		if rcode != 3 || an != 0 {
			return failRCode
		}
		return -1
	}
	if rcode != 0 {
		return failRCode
	}
	off := 12 + qlen
	want := expectedAddr[q.class]
	found := false
	for a := 0; a < an; a++ {
		var ok bool
		if off, ok = skipName(pkt, off); !ok || off+10 > len(pkt) {
			return failMalformed
		}
		typ := binary.BigEndian.Uint16(pkt[off:])
		rdlen := int(binary.BigEndian.Uint16(pkt[off+8:]))
		off += 10
		if off+rdlen > len(pkt) {
			return failMalformed
		}
		if typ == 1 && rdlen == 4 {
			if [4]byte(pkt[off:off+4]) != want {
				return failAnswer
			}
			found = true
		}
		off += rdlen
	}
	if !found {
		return failAnswer
	}
	return -1
}

// skipName steps over a possibly compressed domain name.
func skipName(pkt []byte, off int) (int, bool) {
	for off < len(pkt) {
		l := int(pkt[off])
		switch {
		case l == 0:
			return off + 1, true
		case l&0xc0 == 0xc0:
			return off + 2, off+2 <= len(pkt)
		case l&0xc0 != 0:
			return 0, false
		}
		off += 1 + l
	}
	return 0, false
}

func equalFoldASCII(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// warmRate is the offered rate of set-up's warm-up, on the same send grid
// as the measured window. Closed-loop warm-up made set-up CPU depend on
// how the daemons contended or slept, which varies with the host's load.
const warmRate = 4000

// warm fills the caches: it replays qs open-loop at warmRate and fails on
// any wrong answer. A reply lost to a host stall only leaves one name
// uncached.
func warm(addr string, qs []query) error {
	st := &stream{queries: qs, due: make([]int64, len(qs))}
	for i := range qs {
		st.due[i] = int64(float64(i)/warmRate*1e9) / sendTick.Nanoseconds() * sendTick.Nanoseconds()
	}
	res, err := runOpenLoop(addr, st)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if n := res.wrong(); n > 0 {
		return fmt.Errorf("warm-up: %d wrong answers", n)
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func enableRxTimestamps(conn *net.UDPConn) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	return serr
}

// rxTimestamp extracts the SCM_TIMESTAMPNS stamp (wall clock) from a
// receive's control messages.
func rxTimestamp(oob []byte) (int64, bool) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return 0, false
	}
	for _, m := range msgs {
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SO_TIMESTAMPNS && len(m.Data) >= 16 {
			sec := int64(binary.LittleEndian.Uint64(m.Data[0:]))
			nsec := int64(binary.LittleEndian.Uint64(m.Data[8:]))
			return sec*1e9 + nsec, true
		}
	}
	return 0, false
}
