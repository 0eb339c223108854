package threads

import "testing"

// Whatever the interleaving of completions (enqueues) and dequeues, ready
// tasks must come out in exactly the order they went in, and the queue's
// array must not grow with the tasks that pass through it.
func TestReadyQueuePopsInArrivalOrder(t *testing.T) {
	// Every task has one unresolved dependency: readyDep enqueues it.
	a := &App{depsLeft: make([]int32, 200_000)}
	for i := range a.depsLeft {
		a.depsLeft[i] = 1
	}
	// Tasks are readied in id order, so the reference FIFO is the range
	// [front, next).
	front, next, peak := TaskID(0), TaskID(0), 0
	push := func(n int) {
		for ; n > 0; n-- {
			a.readyDep(next)
			next++
		}
		peak = max(peak, a.ready.Len())
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			want := TaskID(-1)
			if front < next {
				want = front
				front++
			}
			if got := a.dequeue(); got != want {
				t.Fatalf("dequeue returned task %d, want %d", got, want)
			}
		}
		if a.ready.Len() != int(next-front) {
			t.Fatalf("Len() = %d, want %d", a.ready.Len(), next-front)
		}
	}
	push(5)
	pop(2)
	push(3)
	pop(8) // drains, then dequeues from an empty queue
	push(4)
	pop(1)
	push(100)
	pop(50)
	push(7)
	pop(200)
	// A barrier-shaped burst must not grow the array past the burst.
	push(64)
	pop(64)
	before := readyCap(a)
	for i := 0; i < 1000; i++ {
		push(64)
		pop(64)
	}
	if readyCap(a) != before {
		t.Errorf("steady 64-task bursts grew the queue's array from %d to %d", before, readyCap(a))
	}
	// Nor may a queue that never drains (a merge tree's: every two
	// retirements ready one more task): its array stays within twice
	// the longest the queue has been.
	push(100)
	for i := 0; i < 50_000; i++ {
		pop(2)
		push(2)
		if readyCap(a) > 2*peak {
			t.Fatalf("after %d tasks: array of %d slots for a queue that peaked at %d", next, readyCap(a), peak)
		}
	}
	pop(100)
}
