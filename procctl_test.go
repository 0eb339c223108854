package procctl_test

import (
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"procctl"
)

func TestFacadePoolAndCoordinator(t *testing.T) {
	coord := procctl.NewCoordinator(4)
	a := procctl.NewPool(procctl.PoolConfig{Name: "a", Workers: 4})
	b := procctl.NewPool(procctl.PoolConfig{Name: "b", Workers: 4})
	coord.RegisterWeighted(a, 1)
	coord.RegisterWeighted(b, 1)
	if a.Target() != 2 || b.Target() != 2 {
		t.Errorf("targets %d/%d, want 2/2", a.Target(), b.Target())
	}
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if err := a.Submit(func() { n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	a.Wait()
	if n.Load() != 100 {
		t.Errorf("ran %d tasks", n.Load())
	}
	coord.Unregister("a")
	if b.Target() != 4 {
		t.Errorf("b target %d after a left, want 4", b.Target())
	}
	b.Close()
	b.Wait()
}

func TestFacadeAllocate(t *testing.T) {
	got := procctl.Allocate(procctl.Available(8, 2), []procctl.Demand{
		{Max: 2}, {Max: 3}, {Max: 3},
	})
	want := []int{2, 2, 2} // the paper's Section 5 worked example
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Allocate = %v, want %v", got, want)
		}
	}
}

func TestFacadeDaemonRoundTrip(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := procctl.NewServer(procctl.NewCoordinator(8), ln)
	go srv.Serve()
	defer srv.Close()

	client, err := procctl.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	p := procctl.NewPool(procctl.PoolConfig{Name: "remote", Workers: 8})
	d, err := client.DriveWith("remote", 8, p, procctl.DriveOptions{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if p.Target() != 8 {
		t.Errorf("target %d, want 8", p.Target())
	}
	if err := client.SetExternalLoad(6); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Target() != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Target() != 2 {
		t.Errorf("target %d after external load, want 2", p.Target())
	}
	p.Close()
	p.Wait()
}
