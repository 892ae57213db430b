package engine

// Per-query evaluation budget. A Budget is threaded from the public entry
// points (Session.Stream, Session.Do, the server's /query handler) down into
// the BFS kernels and join recursions, which poll it at level granularity:
// once the deadline passes, the context is done, the row allowance is spent,
// or Stop is called, every loop that sees the budget unwinds promptly.
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
// cut short by a Budget: deadline, context cancellation, row limit, or an
// explicit Stop. Callers distinguish "partial result" from "failure" with
// errors.Is.
var ErrCanceled = errors.New("engine: evaluation budget exhausted")

// Budget bounds one evaluation: an optional wall-clock deadline, an optional
// row allowance, an optional context whose cancellation is honored, and a
// manual stop flag (used by parallel fans to cancel siblings once a witness
// is found). The zero Budget and the nil *Budget are both unlimited; every
// method is safe on a nil receiver, so kernels thread the pointer without
// guarding call sites. All methods are safe for concurrent use.
type Budget struct {
	ctx      context.Context
	deadline time.Time
	maxRows  int64
	rows     atomic.Int64
	stopped  atomic.Bool
	parent   *Budget
}

// NewBudget builds a budget. ctx may be nil (no context check), deadline may
// be zero (no deadline), maxRows may be 0 (no row cap). A context deadline
// tighter than the explicit one wins, because ctx.Err() fires first.
func NewBudget(ctx context.Context, deadline time.Time, maxRows int) *Budget {
	return &Budget{ctx: ctx, deadline: deadline, maxRows: int64(maxRows)}
}

// Stop cancels the budget manually; all subsequent Canceled calls return
// true. Used to cancel sibling branch evaluations on first witness.
func (b *Budget) Stop() {
	if b != nil {
		b.stopped.Store(true)
	}
}

// Fork derives a child budget observing this one: the child is canceled
// whenever the parent is, but stopping the child leaves the parent alive.
// This is the shape a parallel fan needs — one shared child per fan, stopped
// on first witness, cancels every sibling without spending the caller's
// budget. Forking a nil budget yields a fresh standalone budget, so fans can
// always cancel siblings even when the caller runs unlimited. Row accounting
// stays with the root: the child carries no row cap of its own.
func (b *Budget) Fork() *Budget {
	return &Budget{parent: b}
}

// Canceled reports whether evaluation under this budget should unwind:
// stopped, row allowance spent, deadline passed, or context done. It is
// monotonic — once true it stays true.
func (b *Budget) Canceled() bool {
	if b == nil {
		return false
	}
	if b.stopped.Load() {
		return true
	}
	if b.parent.Canceled() {
		b.stopped.Store(true)
		return true
	}
	if b.maxRows > 0 && b.rows.Load() >= b.maxRows {
		return true
	}
	if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
		b.stopped.Store(true)
		return true
	}
	if b.ctx != nil {
		select {
		case <-b.ctx.Done():
			b.stopped.Store(true)
			return true
		default:
		}
	}
	return false
}

// AddRow charges one emitted row against the allowance and reports whether
// the caller may continue enumerating. On a nil or uncapped budget it always
// returns true.
func (b *Budget) AddRow() bool {
	if b == nil {
		return true
	}
	if b.parent != nil {
		return b.parent.AddRow() // row accounting lives at the fork root
	}
	n := b.rows.Add(1)
	return b.maxRows <= 0 || n < b.maxRows
}

// Rows returns the number of rows charged so far.
func (b *Budget) Rows() int64 {
	if b == nil {
		return 0
	}
	if b.parent != nil {
		return b.parent.Rows()
	}
	return b.rows.Load()
}

// Err returns ErrCanceled when the budget is spent and nil otherwise.
func (b *Budget) Err() error {
	if b.Canceled() {
		return ErrCanceled
	}
	return nil
}
