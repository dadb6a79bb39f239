package des

import "slices"

// FIFO is a first-in first-out queue with an O(1) pop: the front is a head
// index into the backing slice, not a copy of the tail over it, so draining
// a k-element burst costs O(k), not O(k²). Popped slots are zeroed (no
// stale pointers for the collector), the storage is reused from the start
// whenever the queue drains, and a push that would otherwise grow the slice
// slides the live elements down first when at least half of it is dead.
// The zero value is an empty queue.
//
// It backs every waiter list and inbox of the simulator (Chan here,
// marcel's run queue); the rarely used PushFront and Insert serve the run
// queue's out-of-order cases.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Items returns the queued elements, oldest first. The slice aliases the
// queue's storage and is valid until the next mutation.
func (q *FIFO[T]) Items() []T { return q.items[q.head:] }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the oldest element of a non-empty queue.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// PushFront inserts v ahead of every queued element.
func (q *FIFO[T]) PushFront(v T) { q.Insert(0, v) }

// Insert places v at position i (0 is the front, Len() the back).
func (q *FIFO[T]) Insert(i int, v T) {
	if i == 0 && q.head > 0 {
		q.head--
		q.items[q.head] = v
		return
	}
	q.items = slices.Insert(q.items, q.head+i, v)
}

// Clear empties the queue and releases its storage.
func (q *FIFO[T]) Clear() { q.items, q.head = nil, 0 }
