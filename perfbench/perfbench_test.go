package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"dnsttl"
)

// A constant 100 µs delay must read 0.1 ms at every quantile: latencies
// come from raw per-query samples, not from a bucketed histogram.
func TestConstantDelayReadsExactly(t *testing.T) {
	st := generate(workloads["hot"], 1, 1)
	n := len(st.queries)
	sendNs := make([]int64, n)
	sendWall := make([]int64, n)
	replies := make([]reply, n)
	for i := range replies {
		sendNs[i] = st.due[i]
		sendWall[i] = 1_700_000_000_000_000_000 + st.due[i]
		replies[i] = reply{recvNs: sendWall[i] + 100_000, verdict: -1}
	}
	res := analyze(st, sendNs, sendWall, replies)
	w := &window{load: res}
	lat := w.latencies()
	for _, q := range []float64{0.5, 0.99} {
		if got := nsToMs(quantile(lat, q)); got != 0.1 {
			t.Errorf("q%.2f = %v ms, want 0.1", q, got)
		}
	}
	if res.failed != 0 || len(res.latencies) != n {
		t.Errorf("failed %d, samples %d of %d", res.failed, len(res.latencies), n)
	}
}

// fakeResolver answers every query of qs correctly except three: one with
// a wrong address, one with SERVFAIL, and one not at all.
func fakeResolver(t *testing.T, qs []query, wrongAddr, wrongRCode, drop int) (string, func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			i := int(binary.BigEndian.Uint16(buf))
			if i == drop {
				continue
			}
			resp := append([]byte(nil), buf[:n]...)
			resp[2] |= 0x80 // QR
			rcode := byte(0)
			if qs[i].class == classNX || qs[i].class == classBlock {
				rcode = 3
			}
			if i == wrongRCode {
				rcode = 2 // SERVFAIL
			}
			resp[3] = 0x80 | rcode // RA
			if rcode == 0 {
				addr := expectedAddr[qs[i].class]
				if i == wrongAddr {
					addr = [4]byte{192, 0, 2, 99}
				}
				resp[7] = 1 // ANCOUNT
				resp = append(resp, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4)
				resp = append(resp, addr[:]...)
			}
			if _, err := conn.WriteToUDP(resp, from); err != nil {
				return
			}
		}
	}()
	return conn.LocalAddr().String(), func() { conn.Close(); <-done }
}

// The checker counts a wrong address, a wrong rcode and a dropped reply,
// each under its own kind, and nothing else.
func TestCheckerCountsInjectedFailures(t *testing.T) {
	w := *workloads["mixed"]
	w.rate = 2000
	st := generate(&w, 7, 1)
	st.queries, st.due = st.queries[:300], st.due[:300]
	wrongAddr := -1
	for i, q := range st.queries {
		if q.class == classLong || q.class == classShort {
			wrongAddr = i
			break
		}
	}
	addr, stop := fakeResolver(t, st.queries, wrongAddr, 150, 200)
	defer stop()
	res, err := runOpenLoop(addr, st)
	if err != nil {
		t.Fatal(err)
	}
	want := [numFailKinds]int{failTimeout: 1, failRCode: 1, failAnswer: 1}
	if res.fails != want || res.failed != 3 {
		t.Errorf("fails %v (total %d), want %v (total 3)", res.fails, res.failed, want)
	}
}

// The same seed gives a byte-identical stream; different seeds give
// disjoint unique labels.
func TestStreamDeterminism(t *testing.T) {
	for name, w := range workloads {
		a, b := generate(w, 42, 2), generate(w, 42, 2)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different streams", name)
		}
		if generate(w, 43, 2).digest() == a.digest() {
			t.Errorf("%s: different seeds, same stream", name)
		}
	}
	seen := map[string]int64{}
	for _, seed := range []int64{1, 2, 3} {
		st := generate(workloads["unique"], seed, 3)
		for _, q := range append(st.warm, st.queries...) {
			if s, ok := seen[q.name]; ok && s != seed {
				t.Fatalf("label %s drawn by seeds %d and %d", q.name, s, seed)
			}
			seen[q.name] = seed
		}
	}
}

func TestLinkSpans(t *testing.T) {
	spans := []span{
		{kind: spanServe, start: 100, end: 200, inflight: 1, qname: "a.example.test"},
		{kind: spanUpstream, start: 110, end: 190, id: 5, qname: "a.example.test"},
		{kind: spanAuth, start: 120, end: 170, id: 5, qname: "a.example.test"},
		{kind: spanServe, start: 300, end: 310, inflight: 2, qname: "b.example.test"},
		{kind: spanAuth, start: 400, end: 410, id: 9, qname: "c.example.test"}, // no upstream
		{kind: spanServe, start: 10, end: 20, qname: "before.window"},
	}
	st := link(spans, 50, 1000)
	if st.serves != 2 || st.upstreams != 1 || st.auths != 2 {
		t.Fatalf("counts %d/%d/%d", st.serves, st.upstreams, st.auths)
	}
	if st.serveNs != 110 || st.serveSelfNs != 30 || st.exchangeSelfNs != 30 || st.authNs != 60 {
		t.Errorf("serve %v self %v exchange self %v auth %v", st.serveNs, st.serveSelfNs, st.exchangeSelfNs, st.authNs)
	}
	if st.unlinked != 1 || st.inflightMax != 2 {
		t.Errorf("unlinked %d inflight max %d", st.unlinked, st.inflightMax)
	}
}

func TestGCStats(t *testing.T) {
	out := "gc 1 @0.011s 1%: 0.010+0.50+0.020 ms clock, 0.020+0.1/0.2/0.3+0.040 ms cpu, 4->4->0 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"other output\n" +
		"gc 2 @0.051s 1%: 0.100+1.0+0.200 ms clock, 0.2+0/0/0+0.4 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n"
	cycles, pause := gcStats(out)
	if cycles != 2 || pause < 0.3299 || pause > 0.3301 {
		t.Errorf("cycles %d pause %v, want 2 and 0.33", cycles, pause)
	}
}

// The reproduction's wall-clock fields are masked, everything else kept.
func TestRenderReportMasksWallClock(t *testing.T) {
	r := &dnsttl.Report{ID: "Planet-scale tier", Title: "t", Text: "row 1\n(total wall 1.23s)",
		Metrics: map[string]float64{"wall_seconds": 1.23, "throughput_user_seconds_per_wall_second": 9, "hit": 0.5}}
	text, digest, err := renderReport(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "1.23") || strings.Contains(text, "throughput") || !strings.Contains(text, "row 1") || !strings.Contains(text, "hit") {
		t.Errorf("masked text:\n%s", text)
	}
	r.Metrics["wall_seconds"], r.Text = 4.56, "row 1\n(total wall 4.56s)"
	text2, digest2, _ := renderReport(r)
	if text2 != text || digest2 != digest {
		t.Error("a different wall clock changed the masked output")
	}
}

// BENCHMARK.json is generated from the metric tables the runs print.
func TestBenchmarkJSONCurrent(t *testing.T) {
	want, err := benchmarkJSON(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with -write-benchmark-json")
	}
}

// quantile is nearest-rank.
func TestQuantile(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if quantile(s, 0.5) != 5 || quantile(s, 0.99) != 10 || quantile(s, 0.1) != 1 {
		t.Error("nearest-rank quantiles wrong")
	}
}

// digest hashes every byte the daemons will see plus the schedule, for the
// determinism check.
func (st *stream) digest() string {
	h := sha256.New()
	for _, q := range st.warm {
		h.Write(q.wire)
	}
	for i, q := range st.queries {
		h.Write(q.wire)
		fmt.Fprintf(h, "@%d;", st.due[i])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
