package threads

import "testing"

// The ready queue pops by advancing a head index; whatever the
// interleaving of completions (appends) and dequeues, tasks must come
// out in exactly the order they went in.
func TestReadyQueuePopsInArrivalOrder(t *testing.T) {
	// Every task has one unresolved dependency: readyDep enqueues it.
	a := &App{depsLeft: make([]int32, 200_000)}
	for i := range a.depsLeft {
		a.depsLeft[i] = 1
	}
	var want []TaskID // reference FIFO: plain slice, re-sliced
	next, peak := TaskID(0), 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			a.readyDep(next)
			want = append(want, next)
			next++
		}
		peak = max(peak, a.queued())
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			got := a.dequeue()
			if len(want) == 0 {
				if got != -1 {
					t.Fatalf("dequeue on an empty queue returned %d, want -1", got)
				}
				continue
			}
			if got != want[0] {
				t.Fatalf("dequeue returned task %d, want %d", got, want[0])
			}
			want = want[1:]
		}
		if a.queued() != len(want) {
			t.Fatalf("queued() = %d, want %d", a.queued(), len(want))
		}
	}
	push(5)
	pop(2)
	push(3)
	pop(6) // drains: storage rewinds
	if a.head != 0 || len(a.ready) != 0 {
		t.Errorf("drained queue did not rewind: head %d, len %d", a.head, len(a.ready))
	}
	pop(2) // empty
	push(4)
	pop(1)
	push(100)
	pop(50)
	push(7)
	pop(200)
	if a.queued() != 0 {
		t.Errorf("%d tasks left", a.queued())
	}
	// A barrier-shaped burst must not grow the array past the burst:
	// the drained storage is reused from the front.
	push(64)
	pop(64)
	before := cap(a.ready)
	for i := 0; i < 1000; i++ {
		push(64)
		pop(64)
	}
	if cap(a.ready) != before {
		t.Errorf("steady 64-task bursts grew the queue's array from %d to %d", before, cap(a.ready))
	}
	// Nor may a queue that never drains (a merge tree's: every two
	// retirements ready one more task) grow with the tasks that pass
	// through it: the dead prefix is reclaimed, the array stays within
	// twice the longest the queue has been.
	push(100)
	for i := 0; i < 50_000; i++ {
		pop(2)
		push(2)
		if cap(a.ready) > 2*peak {
			t.Fatalf("after %d tasks: array of %d slots for a queue that peaked at %d", next, cap(a.ready), peak)
		}
	}
	pop(100)
	if a.queued() != 0 {
		t.Errorf("%d tasks left", a.queued())
	}
}
