package ctrl

import (
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/sim"
)

func TestDecentralizedSoloTakesMachine(t *testing.T) {
	k := newKernel(8, kernel.NewTimeshare())
	d := NewDecentralized(k)
	spin(k, 1, 8, sim.Second)
	d.Register(1, 8)
	if got := d.Poll(1); got != 8 {
		t.Errorf("solo target %d, want 8", got)
	}
}

func TestDecentralizedFirstArrivalCaptures(t *testing.T) {
	// App 1 already runs 8 processes; app 2's own poll squeezes itself
	// to the floor — the capture failure mode the experiment measures.
	k := newKernel(8, kernel.NewTimeshare())
	d := NewDecentralized(k)
	spin(k, 1, 8, sim.Second)
	spin(k, 2, 8, sim.Second)
	k.Engine().Run(sim.Time(10 * sim.Millisecond))
	d.Register(1, 8)
	d.Register(2, 8)
	// Everyone is runnable (8 CPUs, 16 procs): both see zero slack.
	if got := d.Poll(2); got != 1 {
		t.Errorf("late arrival target %d, want the floor 1", got)
	}
	k.Engine().Run(sim.Time(3 * sim.Second))
}

func TestDecentralizedCountsUncontrolled(t *testing.T) {
	k := newKernel(8, kernel.NewTimeshare())
	d := NewDecentralized(k)
	spin(k, kernel.AppNone, 3, sim.Second)
	spin(k, 1, 8, sim.Second)
	d.Register(1, 8)
	if got := d.Poll(1); got != 5 {
		t.Errorf("target %d with 3 uncontrolled runnable, want 5", got)
	}
}

func TestDecentralizedDamping(t *testing.T) {
	k := newKernel(16, kernel.NewTimeshare())
	d := NewDecentralized(k)
	d.Damping = 2
	// App 1 has 8 live processes but only 4 runnable (4 suspended on a
	// wait queue); the greedy target would jump to 8 at once, damping
	// limits the step to +2.
	q := kernel.NewWaitQueue("suspend")
	for i := 0; i < 4; i++ {
		k.SpawnResumable("s", 1, 0, kernel.Script(kernel.Sleep(q)))
	}
	spin(k, 1, 4, sim.Second)
	k.Engine().Run(sim.Time(5 * sim.Millisecond)) // let the sleepers block
	d.Register(1, 8)
	if got := d.Poll(1); got != 6 {
		t.Errorf("damped target %d, want 4+2", got)
	}
	d.Damping = 0
	if got := d.Poll(1); got != 8 {
		t.Errorf("undamped target %d, want 8 (capped at live)", got)
	}
	k.WakeQueue(q, 4)
	k.Engine().Run(sim.Time(3 * sim.Second))
}

func TestDecentralizedCapsAtLiveProcs(t *testing.T) {
	k := newKernel(16, kernel.NewTimeshare())
	d := NewDecentralized(k)
	spin(k, 1, 3, sim.Second)
	d.Register(1, 3)
	if got := d.Poll(1); got != 3 {
		t.Errorf("target %d exceeds live processes", got)
	}
}

func TestDecentralizedScansPerPoll(t *testing.T) {
	k := newKernel(4, kernel.NewTimeshare())
	d := NewDecentralized(k)
	d.Register(1, 4)
	d.Register(2, 4)
	for i := 0; i < 5; i++ {
		d.Poll(1)
		d.Poll(2)
	}
	if d.Scans != 10 {
		t.Errorf("Scans = %d, want one per poll (the paper's syscall-cost point)", d.Scans)
	}
	if d.Registered() != 2 {
		t.Errorf("Registered = %d", d.Registered())
	}
	d.Unregister(2)
	if d.Registered() != 1 {
		t.Errorf("Registered after unregister = %d", d.Registered())
	}
}
