package procctl_test

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"procctl"
	"procctl/internal/flight"
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

// TestReadmeQuickStart runs README.md's library quick start as written:
// the lines between the markers below are its code block, which the test
// first checks word for word. With 4 processors managed, the external
// load of 2 takes the pool's target from 4 to 2, and clearing it brings
// the target back to 4.
func TestReadmeQuickStart(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.ReadFile("procctl_test.go")
	if err != nil {
		t.Fatal(err)
	}
	const block = "## Quick start (library)\n\n```go\n"
	_, doc, ok := strings.Cut(string(readme), block)
	doc, _, ok2 := strings.Cut(doc, "```")
	_, code, ok3 := strings.Cut(string(self), "\t// README quick start: begin\n")
	code, _, ok4 := strings.Cut(code, "\t// README quick start: end\n")
	if !ok || !ok2 || !ok3 || !ok4 {
		t.Fatal("README.md's quick-start block or this test's markers are missing")
	}
	var lines []string
	for _, line := range strings.SplitAfter(code, "\n") {
		line = strings.TrimPrefix(line, "\t")
		body := strings.TrimLeft(line, "\t")
		lines = append(lines, strings.Repeat("    ", len(line)-len(body))+body)
	}
	if got := strings.Join(lines, ""); got != doc {
		t.Fatalf("this test no longer runs README.md's quick start:\n%s\nwant\n%s", got, doc)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	jobs := make([]int, 100)
	var rendered atomic.Int64
	render := func(int) { rendered.Add(1) }

	// README quick start: begin
	coord := procctl.NewCoordinator(0) // manage GOMAXPROCS processors
	pool := procctl.NewPool(procctl.PoolConfig{Name: "render", Workers: 16})
	coord.RegisterWeighted(pool, 1) // one unit share

	for _, job := range jobs {
		pool.Submit(func() { render(job) })
	}
	coord.SetExternalLoad(2) // two processors busy elsewhere: the pool shrinks
	coord.SetExternalLoad(0) // free again: it grows back
	pool.Close()
	pool.Wait()
	// README quick start: end

	if n := rendered.Load(); n != int64(len(jobs)) {
		t.Errorf("rendered %d of %d jobs", n, len(jobs))
	}
	var targets []int64
	for _, ev := range coord.FlightRecorder().Snapshot(0) {
		if ev.Kind == flight.KindTarget && ev.App == "render" {
			targets = append(targets, ev.A)
		}
	}
	if want := []int64{4, 2, 4}; !slices.Equal(targets, want) {
		t.Errorf("the pool's targets went %v, want %v", targets, want)
	}
	if got := pool.Target(); got != 4 {
		t.Errorf("pool target %d after the load cleared, want 4", got)
	}
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
