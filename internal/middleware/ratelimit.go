package middleware

import (
	"context"
	"fmt"
	"net/netip"

	"dnsttl/internal/obs"
	"dnsttl/internal/ratelimit"
	"dnsttl/internal/simnet"
)

// rateLimitStage is a per-client token bucket: each masked client address
// earns qps tokens per second up to burst, and a query that finds the
// bucket empty is refused (or silently dropped). Clients are masked to a
// prefix — /32 and /64 by default — so one flooding host cannot rotate
// through a /24 of sources to earn fresh buckets, and one NAT'd office
// shares a single budget, the same aggregation classic resolver ACL
// limiters use.
type rateLimitStage struct {
	name             string
	next             Stage
	prefix4, prefix6 int
	drop             bool
	clock            simnet.Clock
	buckets          *ratelimit.Table[netip.Addr]

	limited *obs.Counter
	passed  *obs.Counter
}

func init() {
	register("ratelimit", func(b *builder, sp *stageSpec) (Stage, error) {
		o := options{sp: sp, seen: map[string]bool{"type": true}}
		qps, burst := o.num("qps", 10), o.num("burst", 20)
		st := &rateLimitStage{
			name:    sp.name,
			prefix4: o.integer("prefix4", 32),
			prefix6: o.integer("prefix6", 64),
			clock:   b.env.clock(),
			limited: b.env.counter(sp.name, "limited"),
			passed:  b.env.counter(sp.name, "passed"),
		}
		switch action := o.str("action", "refuse"); action {
		case "refuse":
		case "drop":
			st.drop = true
		default:
			return nil, fmt.Errorf("middleware: stage %q: action must be refuse or drop, got %q", sp.name, action)
		}
		next, err := b.next(&o)
		if err != nil {
			return nil, err
		}
		st.next = next
		if err := o.finish(); err != nil {
			return nil, err
		}
		if err := ratelimit.Validate(qps, burst, 0, float64(st.prefix4), float64(st.prefix6)); err != nil {
			return nil, fmt.Errorf("middleware: stage %q: %w", sp.name, err)
		}
		st.buckets = ratelimit.NewTable[netip.Addr](qps, burst)
		return st, nil
	})
}

func (s *rateLimitStage) Name() string { return s.name }

// admit spends one token from the client's bucket, reporting whether the
// query may proceed.
func (s *rateLimitStage) admit(client netip.Addr) bool {
	ok, _ := s.buckets.Take(ratelimit.Mask(client, s.prefix4, s.prefix6), s.clock.Now())
	return ok
}

func (s *rateLimitStage) Resolve(ctx context.Context, q *Query) (*Response, error) {
	// In-process lookups carry no client address; the limiter is a
	// network-edge defense, so they pass untouched.
	if !q.Client.IsValid() || s.admit(q.Client) {
		s.passed.Inc()
		return s.next.Resolve(ctx, q)
	}
	s.limited.Inc()
	res := refused(q)
	return &Response{Result: res, Verdict: VerdictLimited, Stage: s.name, Drop: s.drop}, nil
}
