package flight

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDoCoalescesConcurrentCallers(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	entered := make(chan struct{})
	calls := 0
	fn := func() (int, error) {
		calls++
		close(entered)
		<-release
		return 42, errors.New("shared")
	}

	const followers = 3
	var joins sync.WaitGroup
	joins.Add(followers)
	type out struct {
		v      int
		err    error
		joined bool
	}
	results := make([]out, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, joined := g.Do("k", func() { t.Error("leader ran onJoin") }, fn)
		results[0] = out{v, err, joined}
	}()
	<-entered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, joined := g.Do("k", joins.Done, fn)
			results[i] = out{v, err, joined}
		}(i)
	}
	joins.Wait()
	for g.Waiting("k") < followers {
		time.Sleep(time.Millisecond)
	}
	if n := g.Waiting("other"); n != 0 {
		t.Fatalf("Waiting on an idle key = %d", n)
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	for i, r := range results {
		if r.v != 42 || r.err == nil || r.err.Error() != "shared" || r.joined != (i > 0) {
			t.Fatalf("caller %d got %+v", i, r)
		}
	}
	if n := g.Waiting("k"); n != 0 {
		t.Fatalf("Waiting after the flight landed = %d, want 0", n)
	}
	// The key is free again: the next call leads a new flight.
	if v, _, joined := g.Do("k", nil, func() (int, error) { return 7, nil }); v != 7 || joined {
		t.Fatalf("second flight: v=%d joined=%v", v, joined)
	}
}
