package hype

import (
	"fmt"
	"sync/atomic"
)

// Limits bounds how much work one evaluation may do, independently of
// wall-clock cancellation: a recursively defined view can make a short
// query touch (or return) an enormous node set, and a serving daemon needs
// to refuse such runs deterministically rather than burn a full timeout on
// them. Zero fields are unlimited.
//
// Budgets are passed per run (Options.Limits). Enforcement happens in the
// same poll window as context cancellation (every cancelCheckInterval
// visited elements), so a run overshoots a budget by at most one window
// per concurrent shard worker. An exceeded budget aborts the run with a
// *LimitError.
type Limits struct {
	// MaxVisited caps the element nodes one run may enter (summed across
	// all shard workers of a parallel run).
	MaxVisited int
	// MaxResultNodes caps the candidate answers one run may accumulate.
	// Candidates are a superset of the final answer, so the bound is on
	// memory actually held, not just on what survives phase 2.
	MaxResultNodes int
}

// active reports whether any bound is set.
func (l Limits) active() bool { return l.MaxVisited > 0 || l.MaxResultNodes > 0 }

// Budget kinds reported in LimitError.What.
const (
	// LimitVisited: the run entered more than MaxVisited elements.
	LimitVisited = "visited-elements"
	// LimitResults: the run accumulated more than MaxResultNodes
	// candidate answers.
	LimitResults = "result-nodes"
)

// LimitError reports an evaluation aborted because it exceeded a resource
// budget. The serving layer maps it to HTTP 422 with a per-cause metric.
type LimitError struct {
	// What names the exceeded budget: LimitVisited or LimitResults.
	What string
	// Limit is the configured bound.
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("hype: evaluation exceeded %s budget (limit %d)", e.What, e.Limit)
}

// budget holds the shared consumption counters of one evaluation run. A
// sequential run owns its budget alone; a parallel run shares one budget
// between the planner and every shard worker, so the bound is global even
// though enforcement is per-goroutine.
type budget struct {
	visited atomic.Int64
	results atomic.Int64
}

// checkBudget flushes the run's consumption since the last poll into the
// shared budget and aborts the run (cancelled + limitErr) once a bound is
// exceeded. Called from the poll window, so the flush granularity is
// cancelCheckInterval visited elements.
func (r *run) checkBudget() {
	if r.limits.MaxVisited > 0 {
		if v := r.bud.visited.Add(cancelCheckInterval); v > int64(r.limits.MaxVisited) {
			r.limitErr = &LimitError{What: LimitVisited, Limit: r.limits.MaxVisited}
			r.cancelled = true
			return
		}
	}
	if r.limits.MaxResultNodes > 0 {
		if d := len(r.cands) - r.flushedCands; d > 0 {
			r.flushedCands = len(r.cands)
			if v := r.bud.results.Add(int64(d)); v > int64(r.limits.MaxResultNodes) {
				r.limitErr = &LimitError{What: LimitResults, Limit: r.limits.MaxResultNodes}
				r.cancelled = true
			}
		}
	}
}
