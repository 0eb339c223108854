package kernel

import "slices"

// FIFO is a first-in, first-out queue: the simulator's one queue type,
// behind every policy run queue, every spin lock's waiters, every
// WaitQueue and the threads runtime's ready queue. The zero FIFO is
// empty and ready to use.
//
// buf[head:] are the queued values, in arrival order. Taking the front
// advances head instead of re-slicing it away, so Push reuses the array:
// the storage rewinds when the queue drains. A Push that finds the array
// full reclaims a dead prefix at least as long as the live part in place,
// so a queue that never drains (an oversubscribed machine's run queue)
// does not grow with every dispatch; otherwise the live part moves to an
// array twice its length. Pushes stay amortised O(1), the capacity within
// twice the queue's peak length, and vacated slots are zeroed.
type FIFO[T comparable] struct {
	buf  []T
	head int
}

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) {
		live := q.buf[q.head:]
		if q.head == 0 || q.head < len(live) {
			q.buf = append(make([]T, 0, max(8, 2*len(live))), live...)
		} else {
			n := copy(q.buf, live)
			clear(q.buf[n:])
			q.buf = q.buf[:n]
		}
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the front value, or T's zero value when the
// queue is empty.
func (q *FIFO[T]) Pop() (v T) {
	if q.head == len(q.buf) {
		return v
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Reserve makes room for n more values, so that the next n pushes
// neither move nor grow the array. A queue without that room moves to an
// array of exactly Len()+n.
func (q *FIFO[T]) Reserve(n int) {
	if cap(q.buf)-len(q.buf) < n {
		q.buf, q.head = append(make([]T, 0, q.Len()+n), q.items()...), 0
	}
}

// items returns the queued values in arrival order, valid until the next
// change to the queue. Treat it as read-only.
func (q *FIFO[T]) items() []T { return q.buf[q.head:] }

// removeAt removes and returns items()[i], order kept. Past the front
// it closes the gap by hand: slices.Delete clears the vacated slot
// through a runtime call, where one store of the zero value will do.
func (q *FIFO[T]) removeAt(i int) T {
	if i == 0 {
		return q.Pop()
	}
	i += q.head
	v := q.buf[i]
	last := len(q.buf) - 1
	copy(q.buf[i:], q.buf[i+1:])
	var zero T
	q.buf[last], q.buf = zero, q.buf[:last]
	return v
}

// remove deletes v if it is queued, order kept, and reports whether it
// was.
func (q *FIFO[T]) remove(v T) bool {
	i := slices.Index(q.items(), v)
	if i >= 0 {
		q.removeAt(i)
	}
	return i >= 0
}

// popWhere removes and returns the first value satisfying pred, or T's
// zero value when none does.
func (q *FIFO[T]) popWhere(pred func(T) bool) T {
	if i := slices.IndexFunc(q.items(), pred); i >= 0 {
		return q.removeAt(i)
	}
	var zero T
	return zero
}
