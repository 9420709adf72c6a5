package middleware

import (
	"context"

	"dnsttl/internal/cache"
	"dnsttl/internal/flight"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// dedupStage coalesces identical in-flight questions: the first query for
// a ⟨name, type⟩ becomes the leader and runs the rest of the chain;
// queries arriving before it finishes wait and share its answer. This is
// the farm's cross-frontend singleflight expressed as a pipeline stage,
// so a single-resolver deployment — or a sub-chain behind a router — can
// opt into coalescing too. Deduplication is name-keyed, never
// client-keyed: placing it after a rate limiter keeps per-client
// accounting exact.
type dedupStage struct {
	name      string
	next      Stage
	leaders   *obs.Counter
	coalesced *obs.Counter
	wait      *simnet.WaitHook
	flight    flight.Group[cache.Key, *Response]
}

func init() {
	register("dedup", func(b *builder, sp *stageSpec) (Stage, error) {
		o := options{sp: sp, seen: map[string]bool{"type": true}}
		st := &dedupStage{
			name:      sp.name,
			leaders:   b.env.counter(sp.name, "leaders"),
			coalesced: b.env.counter(sp.name, "coalesced"),
			wait:      b.env.WaitHook,
		}
		next, err := b.next(&o)
		if err != nil {
			return nil, err
		}
		st.next = next
		if err := o.finish(); err != nil {
			return nil, err
		}
		return st, nil
	})
}

func (s *dedupStage) Name() string { return s.name }

// join books a follower and lets the listener serving it move on before
// it waits.
func (s *dedupStage) join() {
	s.coalesced.Inc()
	s.wait.Call()
}

func (s *dedupStage) Resolve(ctx context.Context, q *Query) (*Response, error) {
	resp, err, joined := s.flight.Do(cache.Key{Name: q.Name, Type: q.Type}, s.join,
		func() (*Response, error) {
			s.leaders.Inc()
			return s.next.Resolve(ctx, q)
		})
	if !joined || err != nil || resp == nil || resp.Result == nil {
		return resp, err
	}
	out := *resp
	out.Result = resp.Result.Follower()
	return &out, nil
}
