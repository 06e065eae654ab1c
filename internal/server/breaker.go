package server

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Breaker states, as exported in /healthz and the smoqe_breaker_* metrics.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// BreakerOpenError rejects a request because the target view's or
// collection's circuit breaker is open: recent requests against it kept
// failing with server faults (panics, injected faults, timeouts), so the
// server sheds load on it until a probe succeeds. The HTTP layer maps it
// to 503 Service Unavailable with a Retry-After header.
type BreakerOpenError struct {
	// View names the tripped breaker: "" is the direct-document breaker,
	// "collection/<name>" a collection's, any other key a view's.
	View string
	// RetryAfter is how long until the breaker will admit a probe.
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	which := "document queries"
	if name, ok := strings.CutPrefix(e.View, collectionBreakerPrefix); ok {
		which = fmt.Sprintf("collection %q", name)
	} else if e.View != "" {
		which = fmt.Sprintf("view %q", e.View)
	}
	return fmt.Sprintf("server: circuit breaker open for %s (retry in %s)", which, e.RetryAfter.Round(time.Millisecond))
}

// breakerGroup holds one circuit breaker per view (the empty view name
// covers direct document queries) and one per collection, keyed
// "collection/<name>". A breaker trips open after threshold consecutive
// server faults; an open breaker rejects requests for the cooldown, then
// admits a single half-open probe whose outcome decides: success closes
// the breaker, failure re-opens it for another cooldown. Client-caused
// failures (bad queries, budget violations, cancellations) never count —
// a breaker guards against a *view* or collection whose evaluations break
// the server, not against clients who send garbage.
type breakerGroup struct {
	threshold int           // consecutive faults to trip; <= 0 disables
	cooldown  time.Duration // open → half-open delay
	now       func() time.Time

	// onTransition, when set, observes every state change (for metrics).
	onTransition func(view, state string)

	mu sync.Mutex
	m  map[string]*breaker // guarded by mu
}

type breaker struct {
	state    string
	fails    int       // consecutive faults while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

func newBreakerGroup(threshold int, cooldown time.Duration) *breakerGroup {
	return &breakerGroup{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		m:         make(map[string]*breaker),
	}
}

// get returns the view's breaker, creating it closed. Caller holds g.mu.
func (g *breakerGroup) get(view string) *breaker {
	b, ok := g.m[view]
	if !ok {
		b = &breaker{state: breakerClosed}
		g.m[view] = b
	}
	return b
}

func (g *breakerGroup) transition(view string, b *breaker, state string) {
	if b.state == state {
		return
	}
	b.state = state
	if g.onTransition != nil {
		g.onTransition(view, state)
	}
}

// allow reports whether a request against view may proceed. A rejected
// request gets the remaining cooldown as a Retry-After hint. When the
// cooldown of an open breaker has expired, exactly one caller is admitted
// as the half-open probe; its record() decides the breaker's fate while
// concurrent requests keep being rejected.
func (g *breakerGroup) allow(view string) (ok bool, retry time.Duration) {
	if g == nil || g.threshold <= 0 {
		return true, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.get(view)
	switch b.state {
	case breakerOpen:
		if wait := b.openedAt.Add(g.cooldown).Sub(g.now()); wait > 0 {
			return false, wait
		}
		g.transition(view, b, breakerHalfOpen)
		b.probing = true
		return true, 0
	case breakerHalfOpen:
		if b.probing {
			return false, g.cooldown
		}
		b.probing = true
		return true, 0
	default:
		return true, 0
	}
}

// record reports one finished request against view: fault marks a server
// fault (panic, injected failure, timeout), !fault any other outcome. In
// the half-open state the probe's result decides — success closes the
// breaker and resets the fault count, failure re-opens it for a fresh
// cooldown.
func (g *breakerGroup) record(view string, fault bool) {
	if g == nil || g.threshold <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.get(view)
	if b.state == breakerHalfOpen {
		b.probing = false
		if fault {
			b.openedAt = g.now()
			g.transition(view, b, breakerOpen)
		} else {
			b.fails = 0
			g.transition(view, b, breakerClosed)
		}
		return
	}
	if !fault {
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerClosed && b.fails >= g.threshold {
		b.openedAt = g.now()
		g.transition(view, b, breakerOpen)
	}
}

// snapshot returns the current state of every breaker that has seen
// traffic, keyed by view ("" = direct document queries).
func (g *breakerGroup) snapshot() map[string]string {
	if g == nil || g.threshold <= 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.m) == 0 {
		return nil
	}
	out := make(map[string]string, len(g.m))
	for view, b := range g.m {
		out[view] = b.state
	}
	return out
}
