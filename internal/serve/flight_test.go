package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"oregami/internal/serve/stats"
)

// TestFlightPanicPropagatesToAllWaiters parks several waiters on one
// flight whose leader panics: every caller must get a typed
// *FlightPanicError (never a stranded channel or a rethrown panic), and
// the key must be cleared so the next do() computes fresh.
func TestFlightPanicPropagatesToAllWaiters(t *testing.T) {
	var g flightGroup
	const waiters = 8
	leaderIn := make(chan struct{})
	results := make(chan error, waiters+1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, err := g.do("k", func() (*cacheEntry, bool, error) {
			close(leaderIn) // flight registered; release the waiters
			time.Sleep(20 * time.Millisecond)
			panic("boom in leader")
		})
		results <- err
	}()
	<-leaderIn
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, shared, err := g.do("k", func() (*cacheEntry, bool, error) {
				t.Error("waiter ran fn despite an in-flight leader")
				return nil, false, nil
			})
			if e != nil || !shared {
				t.Errorf("waiter got entry=%v shared=%v, want nil/true", e, shared)
			}
			results <- err
		}()
	}
	wg.Wait()
	close(results)
	var n int
	for err := range results {
		n++
		var fpe *FlightPanicError
		if !errors.As(err, &fpe) {
			t.Fatalf("caller %d got %v, want *FlightPanicError", n, err)
		}
		if fpe.Value != "boom in leader" {
			t.Errorf("panic value = %v", fpe.Value)
		}
	}
	if n != waiters+1 {
		t.Fatalf("%d callers reported, want %d", n, waiters+1)
	}

	// The key is clear: a new call computes instead of joining a corpse.
	e, _, shared, err := g.do("k", func() (*cacheEntry, bool, error) {
		return &cacheEntry{key: "k"}, false, nil
	})
	if err != nil || shared || e == nil {
		t.Fatalf("post-panic do: entry=%v err=%v shared=%v, want fresh compute", e, err, shared)
	}
}

// TestFlightPanicMapsTo500 checks the HTTP translation: a flight panic
// is an internal error, not a client fault.
func TestFlightPanicMapsTo500(t *testing.T) {
	he := pipelineHTTPError(&FlightPanicError{Value: "x"})
	if he.status != 500 {
		t.Errorf("status = %d, want 500", he.status)
	}
}

// TestRetryAfterTracksQueueAndLatency pins the adaptive Retry-After
// policy: 1s with no history, queue-depth × observed p50 once the map
// stage has samples, clamped to [1s, maxRetryAfter].
func TestRetryAfterTracksQueueAndLatency(t *testing.T) {
	mkPool := func() *workerPool { return newWorkerPool(1, 1, stats.New()) }

	t.Run("no history falls back to 1s", func(t *testing.T) {
		if got := mkPool().retryAfter(); got != time.Second {
			t.Errorf("retryAfter = %v, want 1s", got)
		}
	})

	t.Run("scales with queue depth", func(t *testing.T) {
		p := mkPool()
		for i := 0; i < 10; i++ {
			p.reg.ObserveStage("map", 2*time.Second)
		}
		p.reg.QueueDepth.Store(4)
		got := p.retryAfter()
		// p50 is a bucket upper bound (2s lands on the 2.097s bucket), so
		// expect (4+1)×p50 within the histogram's 2x bucket resolution.
		if got < 10*time.Second || got > 21*time.Second {
			t.Errorf("retryAfter = %v, want ~(4+1)×2s", got)
		}
	})

	t.Run("sub-second estimates clamp up to 1s", func(t *testing.T) {
		p := mkPool()
		for i := 0; i < 10; i++ {
			p.reg.ObserveStage("map", time.Millisecond)
		}
		if got := p.retryAfter(); got != time.Second {
			t.Errorf("retryAfter = %v, want 1s floor", got)
		}
	})

	t.Run("clamps to maxRetryAfter", func(t *testing.T) {
		p := mkPool()
		for i := 0; i < 10; i++ {
			p.reg.ObserveStage("map", 30*time.Second)
		}
		p.reg.QueueDepth.Store(100)
		if got := p.retryAfter(); got != maxRetryAfter {
			t.Errorf("retryAfter = %v, want cap %v", got, maxRetryAfter)
		}
	})
}
