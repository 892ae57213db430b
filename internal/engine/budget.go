package engine

// Per-query evaluation budget. A Budget is threaded from the public entry
// points (Session.Stream, Session.Do, the server's /query handler) down into
// the BFS kernels and join recursions, which poll it at level granularity:
// once the deadline passes, the context is done or Stop is called, every
// loop that sees the budget unwinds promptly.
// Truncation keeps soundness — every tuple already emitted came from a
// completed search prefix — but gives up completeness, so budget-truncated
// intermediate results must never be installed in cross-query caches
// (the atom store and the session result cache both check for this).

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrCanceled is returned (wrapped or bare) by evaluation paths that were
// cut short by a Budget: deadline, context cancellation, or an explicit
// Stop. Callers distinguish "partial result" from "failure" with
// errors.Is.
var ErrCanceled = errors.New("engine: evaluation budget exhausted")

// Budget bounds one evaluation: an optional wall-clock deadline, an optional
// context whose cancellation is honored, and a manual stop flag. The zero
// Budget and the nil *Budget are both unlimited; every method is safe on a
// nil receiver, so kernels thread the pointer without guarding call sites.
// All methods are safe for concurrent use.
type Budget struct {
	ctx      atomic.Pointer[context.Context] // nil: no context check
	deadline time.Time
	stopped  atomic.Bool
}

// NewBudget builds a budget. ctx may be nil (no context check), deadline may
// be zero (no deadline). A context deadline tighter than the explicit one
// wins, because ctx.Err() fires first.
func NewBudget(ctx context.Context, deadline time.Time) *Budget {
	b := &Budget{deadline: deadline}
	b.Bind(ctx)
	return b
}

// Bind replaces the context the budget honors; nil honors none. A cursor
// parked between requests binds each page's production to the request that
// asks for it. A cancellation already seen stays seen.
func (b *Budget) Bind(ctx context.Context) {
	switch {
	case b == nil:
	case ctx == nil:
		b.ctx.Store(nil)
	default:
		b.ctx.Store(&ctx)
	}
}

// Stop cancels the budget manually; all subsequent Canceled calls return
// true. A cursor's Close stops the budget of the evaluation it pulls.
func (b *Budget) Stop() {
	if b != nil {
		b.stopped.Store(true)
	}
}

// Canceled reports whether evaluation under this budget should unwind:
// stopped, deadline passed, or context done. It is
// monotonic — once true it stays true.
func (b *Budget) Canceled() bool {
	if b == nil {
		return false
	}
	if b.stopped.Load() {
		return true
	}
	if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
		b.stopped.Store(true)
		return true
	}
	if ctx := b.ctx.Load(); ctx != nil {
		select {
		case <-(*ctx).Done():
			b.stopped.Store(true)
			return true
		default:
		}
	}
	return false
}

// Err returns ErrCanceled when the budget is spent and nil otherwise.
func (b *Budget) Err() error {
	if b.Canceled() {
		return ErrCanceled
	}
	return nil
}
