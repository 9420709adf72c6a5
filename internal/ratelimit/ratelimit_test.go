package ratelimit

import (
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"
)

var t0 = time.Unix(1_000_000, 0)

func TestTakeRefillsAndCapsAtBurst(t *testing.T) {
	tb := NewTable[string](2, 3)
	for i := 0; i < 3; i++ {
		if ok, limited := tb.Take("k", t0); !ok || limited != 0 {
			t.Fatalf("take %d of the initial burst: ok=%v limited=%d", i, ok, limited)
		}
	}
	if ok, limited := tb.Take("k", t0); ok || limited != 1 {
		t.Fatalf("take past burst: ok=%v limited=%d, want refused with limited=1", ok, limited)
	}
	// Half a second at 2 tokens/s earns exactly one token.
	now := t0.Add(500 * time.Millisecond)
	if ok, _ := tb.Take("k", now); !ok {
		t.Fatal("refill after 0.5 s at rate 2 should pass one")
	}
	if ok, _ := tb.Take("k", now); ok {
		t.Fatal("refill earned more than one token")
	}
	// A long idle period refills only up to burst.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := tb.Take("k", now); !ok {
			t.Fatalf("take %d after idle hour refused", i)
		}
	}
	if ok, _ := tb.Take("k", now); ok {
		t.Fatal("idle refill exceeded burst")
	}
	// A clock that steps backwards earns nothing.
	if ok, _ := tb.Take("k", now.Add(-time.Minute)); ok {
		t.Fatal("backwards clock step earned a token")
	}
	// Other keys have their own buckets.
	if ok, _ := tb.Take("other", now); !ok {
		t.Fatal("fresh key should start with a full bucket")
	}
}

// TestTakeLimitedCountsSlipCadence pins the run counter RRL slips on:
// limited climbs by one per refusal and restarts after a pass.
func TestTakeLimitedCountsSlipCadence(t *testing.T) {
	tb := NewTable[int](1, 1)
	if ok, _ := tb.Take(7, t0); !ok {
		t.Fatal("first take refused")
	}
	const slip = 2
	slips := 0
	for want := 1; want <= 6; want++ {
		ok, limited := tb.Take(7, t0)
		if ok || limited != want {
			t.Fatalf("refusal %d: ok=%v limited=%d", want, ok, limited)
		}
		if limited%slip == 0 {
			slips++
		}
	}
	if slips != 3 {
		t.Fatalf("slip=2 over 6 refusals slipped %d, want 3", slips)
	}
	if ok, limited := tb.Take(7, t0.Add(time.Second)); !ok || limited != 0 {
		t.Fatalf("refilled take: ok=%v limited=%d", ok, limited)
	}
	if _, limited := tb.Take(7, t0.Add(time.Second)); limited != 1 {
		t.Fatalf("limited after a pass = %d, want the run restarted at 1", limited)
	}
}

// TestTableResetsWholesaleAtCap fills the table to maxKeys: the next new
// key resets every bucket, so a drained key starts full again.
func TestTableResetsWholesaleAtCap(t *testing.T) {
	tb := NewTable[int](1, 1)
	tb.Take(0, t0)
	if ok, _ := tb.Take(0, t0); ok {
		t.Fatal("key 0 should be drained")
	}
	for k := 1; k < maxKeys; k++ {
		tb.Take(k, t0)
	}
	if n := len(tb.buckets); n != maxKeys {
		t.Fatalf("table holds %d keys, want %d", n, maxKeys)
	}
	// An existing key at the cap does not reset the table.
	if ok, _ := tb.Take(0, t0); ok {
		t.Fatal("key 0 refilled without a reset")
	}
	tb.Take(maxKeys, t0)
	if n := len(tb.buckets); n != 1 {
		t.Fatalf("after the reset the table holds %d keys, want 1", n)
	}
	if ok, _ := tb.Take(0, t0); !ok {
		t.Fatal("key 0 should start full after the wholesale reset")
	}
}

func TestTakeExistingKeyAllocs(t *testing.T) {
	tb := NewTable[netip.Addr](1e9, 1e9)
	key := netip.MustParseAddr("192.0.2.0")
	tb.Take(key, t0)
	if allocs := testing.AllocsPerRun(200, func() { tb.Take(key, t0) }); allocs != 0 {
		t.Fatalf("Take on an existing key: %v allocs, want 0", allocs)
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		in       string
		p4, p6   int
		wantAddr string
	}{
		{"203.0.113.99", 24, 56, "203.0.113.0"},
		{"203.0.113.99", 32, 64, "203.0.113.99"},
		{"::ffff:203.0.113.99", 24, 56, "203.0.113.0"},
		{"2001:db8:aa:bbcc::1", 24, 56, "2001:db8:aa:bb00::"},
		{"2001:db8::1", 24, 0, "::"},
	}
	for _, c := range cases {
		if got := Mask(netip.MustParseAddr(c.in), c.p4, c.p6); got != netip.MustParseAddr(c.wantAddr) {
			t.Errorf("Mask(%s, /%d, /%d) = %s, want %s", c.in, c.p4, c.p6, got, c.wantAddr)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(5, 15, 2, 24, 56); err != nil {
		t.Fatalf("valid settings rejected: %v", err)
	}
	if err := Validate(0.5, 1, 0, 0, 128); err != nil {
		t.Fatalf("boundary settings rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name                          string
		rate, burst, slip, pre4, pre6 float64
		want                          string
	}{
		{"zero rate", 0, 15, 2, 24, 56, "rate"},
		{"nan rate", nan, 15, 2, 24, 56, "rate"},
		{"inf rate", inf, 15, 2, 24, 56, "rate"},
		{"small burst", 5, 0.5, 2, 24, 56, "burst"},
		{"nan burst", 5, nan, 2, 24, 56, "burst"},
		{"inf burst", 5, inf, 2, 24, 56, "burst"},
		{"negative slip", 5, 15, -3, 24, 56, "slip"},
		{"fractional slip", 5, 15, 1.5, 24, 56, "slip"},
		{"nan slip", 5, 15, nan, 24, 56, "slip"},
		{"fractional prefix4", 5, 15, 2, 24.9, 56, "prefix4"},
		{"prefix4 too long", 5, 15, 2, 33, 56, "prefix4"},
		{"negative prefix6", 5, 15, 2, 24, -1, "prefix6"},
		{"nan prefix6", 5, 15, 2, 24, nan, "prefix6"},
	}
	for _, c := range cases {
		err := Validate(c.rate, c.burst, c.slip, c.pre4, c.pre6)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.want)
		}
	}
}
