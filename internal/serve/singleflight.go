package serve

import (
	"fmt"
	"sync"
)

// flightGroup deduplicates concurrent identical computations: the first
// caller for a key runs fn, later callers for the same key block and
// share the first caller's result. This is the stdlib-only equivalent of
// golang.org/x/sync/singleflight, sized for this server's needs (no
// Forget). Unlike the early version, a panicking leader is contained:
// the panic becomes a *FlightPanicError handed to the leader and every
// waiter, and the in-flight key is cleared so the next request computes
// fresh instead of piling onto a dead flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// FlightPanicError reports that the flight leader panicked while
// computing. The pipeline already contains its own panics as
// *core.PipelineError, so seeing this means a bug outside the pipeline
// (cache fill, encoding, ...); the HTTP layer maps it to 500.
type FlightPanicError struct {
	Value interface{}
}

func (e *FlightPanicError) Error() string {
	return fmt.Sprintf("serve: flight leader panicked: %v", e.Value)
}

type flightCall struct {
	done chan struct{}
	val  *cacheEntry
	hit  bool
	err  error
}

// do runs fn once per in-flight key. fn reports whether its entry was a
// cache hit rather than a fresh computation; do hands that hit flag to
// every caller of the flight, and shared reports whether this caller
// joined another caller's flight instead of running fn. Whatever
// happens inside fn — return, error, or panic — the key is cleared and
// done is closed, so no waiter is ever stranded.
func (g *flightGroup) do(key string, fn func() (*cacheEntry, bool, error)) (val *cacheEntry, hit, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if call, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.val, call.hit, true, call.err
	}
	call := &flightCall{done: make(chan struct{})}
	g.m[key] = call
	g.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				call.val, call.hit, call.err = nil, false, &FlightPanicError{Value: r}
			}
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(call.done)
		}()
		call.val, call.hit, call.err = fn()
	}()
	return call.val, call.hit, false, call.err
}
