package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The operations a fifoModel step applies.
const (
	opPush = iota
	opPop
	opRemoveAt
	opPopWhere
	opRemove
	opReserve
	numFIFOOps
)

// fifoModel drives a FIFO and a plain slice, the reference, through the
// same operations and reports the first place they disagree. Values are
// pushed counting up from 1, so 0 is "none".
type fifoModel struct {
	q    FIFO[int]
	ref  []int
	last int // the last value pushed
}

// step applies op, with arg choosing its position, divisor, value or
// size, to both queues and checks the FIFO against the reference.
func (m *fifoModel) step(op, arg int) error {
	switch op {
	case opPush:
		m.last++
		m.q.Push(m.last)
		m.ref = append(m.ref, m.last)
	case opPop:
		want := 0
		if len(m.ref) > 0 {
			want, m.ref = m.ref[0], m.ref[1:]
		}
		if got := m.q.Pop(); got != want {
			return fmt.Errorf("Pop = %d, want %d", got, want)
		}
	case opRemoveAt:
		if len(m.ref) == 0 {
			return nil
		}
		i := arg % len(m.ref)
		if got := m.q.removeAt(i); got != m.ref[i] {
			return fmt.Errorf("removeAt(%d) = %d, want %d", i, got, m.ref[i])
		}
		m.ref = slices.Delete(m.ref, i, i+1)
	case opPopWhere:
		d := arg%4 + 2
		pred := func(v int) bool { return v%d == 0 }
		want := 0
		if i := slices.IndexFunc(m.ref, pred); i >= 0 {
			want = m.ref[i]
			m.ref = slices.Delete(m.ref, i, i+1)
		}
		if got := m.q.popWhere(pred); got != want {
			return fmt.Errorf("popWhere(divisible by %d) = %d, want %d", d, got, want)
		}
	case opRemove:
		v := m.last - arg%8 // queued, already gone, or never pushed
		i := slices.Index(m.ref, v)
		if got := m.q.remove(v); got != (i >= 0) {
			return fmt.Errorf("remove(%d) = %v with %d queued at %d", v, got, v, i)
		}
		if i >= 0 {
			m.ref = slices.Delete(m.ref, i, i+1)
		}
	case opReserve:
		n := arg % 16
		room := cap(m.q.buf) - len(m.q.buf)
		m.q.Reserve(n)
		if got := cap(m.q.buf) - len(m.q.buf); got < n || (room < n && cap(m.q.buf) != len(m.ref)+n) {
			return fmt.Errorf("Reserve(%d) with %d queued left room for %d in an array of %d", n, len(m.ref), got, cap(m.q.buf))
		}
	default:
		panic(fmt.Sprintf("unknown FIFO op %d", op))
	}
	return m.check()
}

// check compares the FIFO's contents with the reference and holds its
// storage rules: a drained queue has rewound, and no slot outside the
// live window still holds a value for the collector to scan.
func (m *fifoModel) check() error {
	if m.q.Len() != len(m.ref) || !slices.Equal(m.q.items(), m.ref) {
		return fmt.Errorf("queue %v (Len %d), want %v", m.q.items(), m.q.Len(), m.ref)
	}
	if m.q.Len() == 0 && (m.q.head != 0 || len(m.q.buf) != 0) {
		return fmt.Errorf("drained queue did not rewind: head %d, len %d", m.q.head, len(m.q.buf))
	}
	for i, v := range m.q.buf[:m.q.head] {
		if v != 0 {
			return fmt.Errorf("dead slot %d still holds %d", i, v)
		}
	}
	for i, v := range m.q.buf[len(m.q.buf):cap(m.q.buf)] {
		if v != 0 {
			return fmt.Errorf("free slot %d still holds %d", len(m.q.buf)+i, v)
		}
	}
	return nil
}

// The FIFO against a plain slice: seeded programs of every operation, the
// queue filling and draining in turn.
func TestFIFOMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m fifoModel
		drains, longest := 0, 0
		for i := 0; i < 5000; i++ {
			// Phases of 500 steps lean to pushes, then to pops, so the
			// queue grows past several arrays and drains again.
			op := rng.Intn(numFIFOOps + 6)
			if op >= numFIFOOps {
				op = opPush
				if i/500%2 == 1 {
					op = opPop
				}
			}
			if err := m.step(op, rng.Intn(256)); err != nil {
				t.Fatalf("seed %d, step %d (op %d): %v", seed, i, op, err)
			}
			if m.q.Len() == 0 {
				drains++
			}
			longest = max(longest, m.q.Len())
		}
		if drains == 0 || longest < 64 {
			t.Fatalf("seed %d: the queue drained %d times and was at most %d long", seed, drains, longest)
		}
	}
}

func TestFifoQueueBasics(t *testing.T) {
	var q FIFO[*Process]
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	a, b, c := &Process{id: 1}, &Process{id: 2}, &Process{id: 3}
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.items()[0] != a || q.Len() != 3 {
		t.Fatal("front/Len wrong")
	}
	if !q.remove(b) || q.remove(b) {
		t.Fatal("remove wrong")
	}
	if got := q.Pop(); got != a {
		t.Fatalf("Pop = %v", got)
	}
	if got := q.popWhere(func(p *Process) bool { return p.id == 3 }); got != c || q.Len() != 0 {
		t.Fatalf("popWhere = %v, Len %d", got, q.Len())
	}
}

// Popping advances a head index and the storage rewinds when the queue
// drains (check holds that after every step), so a queue in steady state
// never re-grows its array; removal from the middle keeps arrival order.
func TestFifoQueueReusesStorage(t *testing.T) {
	var m fifoModel
	// Six values a round: push four, pop two, push two, remove the fifth
	// and the long-gone first, take the first even value, remove the back
	// one by position and pop the front.
	round := [][2]int{{opPush, 0}, {opPush, 0}, {opPush, 0}, {opPush, 0}, {opPop, 0}, {opPop, 0},
		{opPush, 0}, {opPush, 0}, {opRemove, 1}, {opRemove, 5}, {opPopWhere, 0}, {opRemoveAt, 1}, {opPop, 0}}
	for r := 0; r < 3; r++ {
		for i, s := range round {
			if err := m.step(s[0], s[1]); err != nil {
				t.Fatalf("round %d, step %d: %v", r, i, err)
			}
		}
		if m.q.Len() != 0 {
			t.Fatalf("round %d left %v queued", r, m.q.items())
		}
	}
	if cap(m.q.buf) > 8 {
		t.Errorf("array grew to %d slots for at most 4 queued values", cap(m.q.buf))
	}
}

// A run queue that never drains — an oversubscribed machine's — once grew
// its array with every dispatch, the rewind happening only on drain. A
// million cycles hovering between 1 and 48 queued, taking from the middle
// now and then as Timeshare.PickNext does, must stay in an array of at
// most twice the longest the queue has been, and once that array is big
// enough, reclaim its dead prefix in place instead of moving.
func TestFifoQueueThatNeverDrainsStaysBounded(t *testing.T) {
	var m fifoModel
	for m.q.Len() < 32 {
		m.step(opPush, 0)
	}
	rng := rand.New(rand.NewSource(1))
	peak, moves := m.q.Len(), 0
	array := &m.q.buf[:1][0]
	for i := 0; i < 1_000_000; i++ {
		op := opPop
		switch n := m.q.Len(); {
		case n == 1 || (n < 48 && rng.Intn(2) == 0):
			op = opPush
		case rng.Intn(8) == 0:
			op = opRemoveAt
		}
		if err := m.step(op, rng.Intn(48)); err != nil {
			t.Fatalf("cycle %d (op %d): %v", i, op, err)
		}
		peak = max(peak, m.q.Len())
		if m.q.Len() == 0 {
			t.Fatalf("cycle %d: the queue drained; the test is about one that does not", i)
		}
		if cap(m.q.buf) > 2*peak {
			t.Fatalf("cycle %d: array of %d slots for a queue that peaked at %d", i, cap(m.q.buf), peak)
		}
		if a := &m.q.buf[:1][0]; a != array {
			array = a
			moves++
		}
	}
	if moves > 8 {
		t.Errorf("the array moved %d times in a queue of at most %d", moves, peak)
	}
}

// FuzzFIFO is the model test's differential on fuzzer-chosen programs:
// each pair of bytes is one operation and its argument (pushes take the
// op values past the last operation, so that queues grow).
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 1, 3, 2, 4, 1, 5, 9, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var m fifoModel
		for i := 0; i+1 < len(prog); i += 2 {
			op := int(prog[i]) % (numFIFOOps + 2)
			if op >= numFIFOOps {
				op = opPush
			}
			if err := m.step(op, int(prog[i+1])); err != nil {
				t.Fatalf("byte %d (op %d): %v", i, op, err)
			}
		}
	})
}
