package coordinator

import (
	"testing"
	"time"

	"procctl/internal/runtime/pool"
)

// statusSpin fetches the daemon's status and indexes the per-app spin
// reports by name.
func statusSpin(t *testing.T, c *Client) map[string]*float64 {
	t.Helper()
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	spin := make(map[string]*float64, len(st.Apps))
	for i := range st.Apps {
		spin[st.Apps[i].Name] = st.Apps[i].SpinPct
	}
	return spin
}

// A client that piggybacks spin%% on register and poll shows up in the
// daemon's status; one that never reports stays nil (rendered "-" by
// procctl-top), not a false 0%%.
func TestSpinReportedOverWire(t *testing.T) {
	_, sock := startServer(t, 8)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v := 37.5
	if _, _, err := c.registerEpoch("noisy", 4, 0, &v, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterWeighted("quiet", 4, 0); err != nil {
		t.Fatal(err)
	}
	spin := statusSpin(t, c)
	if spin["noisy"] == nil || *spin["noisy"] != 37.5 {
		t.Errorf("noisy spin = %v, want 37.5", spin["noisy"])
	}
	if spin["quiet"] != nil {
		t.Errorf("quiet never reported spin but status shows %v", *spin["quiet"])
	}

	// A poll refreshes the stored report; a spin-less poll keeps it.
	v2 := 12.0
	if _, _, err := c.pollEpoch("noisy", &v2, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PollEpoch("noisy", 0); err != nil {
		t.Fatal(err)
	}
	spin = statusSpin(t, c)
	if spin["noisy"] == nil || *spin["noisy"] != 12.0 {
		t.Errorf("noisy spin after poll = %v, want 12", spin["noisy"])
	}
}

// In-process members that can report a spin%% (a *pool.Pool) are sampled
// live at status time instead of waiting for a poll; one that cannot (a
// SetTarget-only member) stays nil, rendered "-".
func TestStatusSamplesInProcessSpin(t *testing.T) {
	srv, sock := startServer(t, 8)
	p := pool.New(pool.Config{Name: "inproc", Workers: 2})
	defer func() { p.Close(); p.Wait() }()
	srv.coord.RegisterWeighted(p, 1)
	srv.coord.RegisterWeighted(&stubMember{name: "plain", procs: 2}, 1)

	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spin := statusSpin(t, c)
	if spin["inproc"] == nil {
		t.Error("in-process pool member has no live spin sample")
	}
	if v, ok := spin["plain"]; !ok || v != nil {
		t.Errorf("SetTarget-only member: spin %v (listed %v), want listed with none", v, ok)
	}
}

// The drive loop forwards the pool's own SpinPercent with its very first
// registration, so the daemon's view is populated without waiting a poll
// interval.
func TestDriveReportsPoolSpin(t *testing.T) {
	_, sock := startServer(t, 8)
	c, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := pool.New(pool.Config{Name: "drv", Workers: 4})
	defer func() { p.Close(); p.Wait() }()
	d, err := c.DriveWith("drv", 4, p, DriveOptions{Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	c2, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if spin := statusSpin(t, c2); spin["drv"] == nil {
		t.Error("driven pool's spin never reached the daemon")
	}
}
