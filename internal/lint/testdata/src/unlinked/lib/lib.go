// Package lib is the unlinked analyzer's fixture: cmd/app links some of
// its functions, and lib_test.go calls one that nothing else does.
package lib

// Used is linked into cmd/app.
func Used() int { return 1 }

func OnlyTested() int { return 2 } // want `fix/lib.OnlyTested is linked into no binary`

// Oracle is linked nowhere, but allowlisted.
func Oracle() int { return 3 }

func Stale() int { return 4 } // want `fix/lib.Stale is linked; drop its allowlist entry`

// Val's value method M is reached through a *Val in an interface.
type Val struct{ n int }

func (v Val) M() int { return v.n }

// FIFO's methods are linked only as cmd/app's *uint8 instantiation.
type FIFO[T any] struct{ items []T }

func (q *FIFO[T]) Len() int { return len(q.items) }

func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }
