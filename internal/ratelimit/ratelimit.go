// Package ratelimit is the one token-bucket table behind both limiters in
// the system: the middleware ratelimit stage, which limits queries per
// client prefix at the resolver's edge, and the authoritative server's
// Response Rate Limiting, which limits responses per ⟨band, client
// prefix⟩. Each key earns rate tokens per second up to burst; the
// package also owns the client-prefix masking and the validation of the
// settings both limiters take.
package ratelimit

import (
	"fmt"
	"math"
	"net/netip"
	"sync"
	"time"
)

// maxKeys bounds a table against source-address floods: at the cap the
// table is reset wholesale, which briefly re-admits everyone — strictly
// safer than unbounded growth, and cheaper than LRU bookkeeping on the
// per-query hot path.
const maxKeys = 1 << 16

// Table is a set of token buckets, one per key, all sharing one rate and
// burst. It is safe for concurrent use.
type Table[K comparable] struct {
	rate, burst float64

	mu      sync.Mutex
	buckets map[K]*bucket
}

type bucket struct {
	tokens  float64
	last    time.Time
	limited int // refusals since the bucket last passed a token
}

// NewTable returns an empty table whose buckets earn rate tokens per
// second up to burst. Both must already have passed Validate.
func NewTable[K comparable](rate, burst float64) *Table[K] {
	return &Table[K]{rate: rate, burst: burst, buckets: map[K]*bucket{}}
}

// Take refills key's bucket for the time since its last use and spends
// one token from it. ok reports whether a token was there. limited counts
// the refusals in a row since the bucket last passed one, this one
// included, and is 0 when ok; RRL derives its slip cadence from it. A
// key seen for the first time starts with a full bucket.
func (t *Table[K]) Take(key K, now time.Time) (ok bool, limited int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	bk := t.buckets[key]
	if bk == nil {
		if len(t.buckets) >= maxKeys {
			t.buckets = map[K]*bucket{}
		}
		bk = &bucket{tokens: t.burst, last: now}
		t.buckets[key] = bk
	} else {
		if dt := now.Sub(bk.last); dt > 0 {
			bk.tokens += dt.Seconds() * t.rate
			if bk.tokens > t.burst {
				bk.tokens = t.burst
			}
		}
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		bk.limited = 0
		return true, 0
	}
	bk.limited++
	return false, bk.limited
}

// Mask aggregates a client address into its network prefix: IPv4 and
// IPv4-mapped addresses to prefix4 bits, IPv6 to prefix6. A flooding host
// then cannot rotate through its network's sources to earn fresh
// buckets, and one NAT'd office shares a single budget.
func Mask(client netip.Addr, prefix4, prefix6 int) netip.Addr {
	bits := prefix6
	if client.Is4() || client.Is4In6() {
		bits = prefix4
	}
	p, err := client.Unmap().Prefix(bits)
	if err != nil {
		return client
	}
	return p.Addr()
}

// Validate checks a limiter's settings as parsed: a finite rate > 0, a
// finite burst >= 1, an integer slip in 0..MaxInt32, and integer
// prefixes in 0..32 (IPv4) and 0..128 (IPv6). Slip and the prefixes are
// taken as float64 so that a fractional value is rejected rather than
// truncated; a limiter without slip passes 0.
func Validate(rate, burst, slip, prefix4, prefix6 float64) error {
	switch {
	case math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0:
		return fmt.Errorf("rate must be finite and > 0, got %v", rate)
	case math.IsNaN(burst) || math.IsInf(burst, 0) || burst < 1:
		return fmt.Errorf("burst must be finite and >= 1, got %v", burst)
	case !integerIn(slip, 0, math.MaxInt32):
		return fmt.Errorf("slip must be an integer >= 0, got %v", slip)
	case !integerIn(prefix4, 0, 32) || !integerIn(prefix6, 0, 128):
		return fmt.Errorf("prefix4/prefix6 out of range: want integers in 0..32 and 0..128, got %v and %v", prefix4, prefix6)
	}
	return nil
}

// integerIn reports whether f is a whole number in [lo, hi]; NaN is not.
func integerIn(f, lo, hi float64) bool {
	return f >= lo && f <= hi && f == math.Trunc(f)
}
