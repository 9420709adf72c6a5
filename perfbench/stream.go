package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Answer classes: what a correct resolver must answer for a drawn name.
const (
	classLong  uint8 = iota // A 192.0.2.1 from the wildcard under example.test (TTL 86400)
	classShort              // A 192.0.2.2 from the wildcard under short.test (TTL 5)
	classNX                 // NXDOMAIN: random label under nx.test, which has no wildcard
	classBlock              // NXDOMAIN: answered by the blocklist stage for ads.example.test
)

// expectedAddr is the A record a NOERROR class must carry.
var expectedAddr = [...][4]byte{
	classLong:  {192, 0, 2, 1},
	classShort: {192, 0, 2, 2},
}

// query is one generated client query: its wire bytes, its name and the
// class of answer the checker expects for it.
type query struct {
	wire  []byte
	name  string // lower-case, no trailing dot
	class uint8
}

// stream is a workload's generated input: warm-up queries sent during
// set-up, then the measured queries with their open-loop send offsets.
type stream struct {
	warm    []query
	queries []query
	due     []int64 // ns after the first send
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s. math/rand's Zipf needs
// s > 1; the workloads use s = 1.0 and 0.9, so this inverts the CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// randLabel is a 16-hex-digit label; drawn from the seeded source, so two
// seeds give disjoint label sets with overwhelming probability (checked by
// the self-test).
func randLabel(r *rand.Rand) string {
	return fmt.Sprintf("%016x", r.Uint64())
}

// encodeQuery builds an RD=1 A query by hand, so the generator's bytes do
// not depend on the codec under test.
func encodeQuery(id uint16, name string) []byte {
	b := make([]byte, 12, 12+len(name)+6)
	b[0], b[1] = byte(id>>8), byte(id)
	b[2] = 0x01 // RD
	b[5] = 1    // QDCOUNT
	for _, label := range strings.Split(name, ".") {
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0, 0, 1, 0, 1) // root, QTYPE A, QCLASS IN
}

// sendTick is the grid due times are rounded down to: the generator sends
// each tick's queries as one burst. A finer schedule would leave the burst
// sizes the server sees to the host's timer overshoot (about 0.6 ms, more
// under hypervisor steal), and per-query CPU with them.
const sendTick = 5 * time.Millisecond

// generate draws a workload's stream from seed alone. Query i of either
// part carries DNS ID uint16(i): the warm-up finishes before the measured
// window starts.
func generate(w *workload, seed int64, seconds int) *stream {
	r := rand.New(rand.NewSource(seed))
	st := &stream{}
	draw := w.drawer(r)
	for i := 0; i < w.warmup; i++ {
		name, class := draw(true)
		st.warm = append(st.warm, query{encodeQuery(uint16(i), name), name, class})
	}
	n := int(w.rate * float64(seconds))
	st.queries = make([]query, n)
	st.due = make([]int64, n)
	var t float64
	for i := 0; i < n; i++ {
		name, class := draw(false)
		st.queries[i] = query{encodeQuery(uint16(i), name), name, class}
		st.due[i] = int64(t*1e9) / sendTick.Nanoseconds() * sendTick.Nanoseconds()
		// Poisson arrivals: independent users make an open loop.
		t += r.ExpFloat64() / w.rate
	}
	return st
}
