package experiments

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"procctl/internal/sim"
)

// TestFiguresGolden pins every figure's rendered output at seed 1 with
// two seeds per point, so seed averaging and the concurrent runs of a
// sweep are both in the bytes. The sweeps are cut short to keep the
// test near two seconds. Shape tests say a figure still shows the
// paper's effect; this one says a refactor of how the figures run their
// simulations changed nothing at all. The renders sit in
// testdata/figures_fast.golden, each under a "-- name --" line, so an
// intended change to the simulator or to a render shows there as a
// diff. A mismatch names the first differing line and writes the whole
// render to a temporary file; there is no update flag: the golden
// changes only by hand.
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures_fast.golden")
	if err != nil {
		t.Fatal(err)
	}
	// fanOut sizes itself by GOMAXPROCS. At 4 the runs really are
	// concurrent, whatever the host; at 1 the calling goroutine runs
	// them all. Every figure must render the same bytes at both.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	o := fastOpts()
	o.Seed, o.Seeds = 1, 2
	mix := []Fig4Arrival{
		{App: "fft", At: 0, Procs: 16},
		{App: "gauss", At: sim.Time(2 * sim.Second), Procs: 16},
		{App: "matmul", At: sim.Time(4 * sim.Second), Procs: 16},
	}
	procs := []int{4, 24}
	var fig4 *Fig4Result
	cases := []struct {
		name   string
		render func() string
	}{
		{"Fig1", func() string { return Fig1(o, procs).Render() }},
		{"Fig3", func() string { return Fig3(o, procs).Render() }},
		{"Fig4", func() string { fig4 = Fig4(o, mix); return fig4.Render() }},
		{"Fig5", func() string { return fig4.RenderFig5() }},
		{"PolicyComparison", func() string { return PolicyComparison(o, mix).Render() }},
		{"PollSweep", func() string { return PollSweep(o, []sim.Duration{sim.Second, 6 * sim.Second}).Render() }},
		{"CacheSweep", func() string { return CacheSweep(o, []float64{1, 10}).Render() }},
		{"QuantumSweep", func() string {
			return QuantumSweep(o, []sim.Duration{30 * sim.Millisecond, 300 * sim.Millisecond}).Render()
		}},
		{"UncontrolledMix", func() string { return UncontrolledMix(o).Render() }},
		{"Decentral", func() string { return Decentral(o, mix).Render() }},
		{"Latency", func() string { return Latency(o, 24).Render() }},
		{"MetricsDemo", func() string { return MetricsDemo(o).JSON() }},
	}
	for _, maxprocs := range []int{4, 1} {
		runtime.GOMAXPROCS(maxprocs)
		var got strings.Builder
		for _, c := range cases {
			got.WriteString("-- " + c.name + " --\n" + c.render())
		}
		if got.String() == string(want) {
			continue
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl)-1 && i < len(wl)-1 && gl[i] == wl[i] {
			i++
		}
		f, err := os.CreateTemp("", "figures_fast-*.golden")
		if err == nil {
			_, err = f.WriteString(got.String())
			f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("at GOMAXPROCS %d the renders drift from testdata/figures_fast.golden at line %d:\n  got  %q\n  want %q\n"+
			"The whole render is in %s; if the change is intended, copy it over the golden.",
			maxprocs, i+1, gl[i], wl[i], f.Name())
	}
}
