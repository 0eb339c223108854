package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"procctl/internal/sim"
)

// TestFiguresGolden pins every figure's rendered output at seed 1 with
// two seeds per point, so seed averaging and the concurrent runs of a
// sweep are both in the bytes. The sweeps are cut short to keep the
// test near two seconds. Shape tests say a figure still shows the
// paper's effect; this one says a refactor of how the figures run their
// simulations changed nothing at all. A mismatch prints the whole
// render; there is no update flag: the hashes change only with an
// intended change to the simulator or to a render, and then by hand.
func TestFiguresGolden(t *testing.T) {
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
		name, sha string
		render    func() string
	}{
		{"Fig1", "4aeb7e4d17318b26eea0b24139d9cf69dfa04ce7208dbd22cab9065095f775ea", func() string { return Fig1(o, procs).Render() }},
		{"Fig3", "c5be7bca240c18b29b7be7ed0165db8d840df102c31efc5a785c839845539c46", func() string { return Fig3(o, procs).Render() }},
		{"Fig4", "fcdf877a3f39c2fb18e02e4af933002fa9fc93318e54faf43b6d32cb20d7850b", func() string { fig4 = Fig4(o, mix); return fig4.Render() }},
		{"Fig5", "89b5725a013dd1f7d484d0c46d48fef8adf60bf869e324bceb54d53216aabe97", func() string { return fig4.RenderFig5() }},
		{"PolicyComparison", "dbbd04f370ce6047173264cfc447864fe7a03096f8a141a6362aa25126352c66", func() string { return PolicyComparison(o, mix).Render() }},
		{"PollSweep", "2eceba177887bda59684a95406463bcf8b93630132f5c2238146a6c7866f04a7", func() string { return PollSweep(o, []sim.Duration{sim.Second, 6 * sim.Second}).Render() }},
		{"CacheSweep", "fd60568773f30ba9b6e5f537254c43f037e249d24fc53710f07e9f6ecfd1873f", func() string { return CacheSweep(o, []float64{1, 10}).Render() }},
		{"QuantumSweep", "7aa18b397164bc35993b0d9cb8e76c5d8ac3acf51d7fbfaf8d9382ef83927118", func() string {
			return QuantumSweep(o, []sim.Duration{30 * sim.Millisecond, 300 * sim.Millisecond}).Render()
		}},
		{"UncontrolledMix", "efe5e59c1077ef0a8e6f5addd7477fe9800cd60266613a0e493f68a76ec94204", func() string { return UncontrolledMix(o).Render() }},
		{"Decentral", "96a37ca260828747018dec7d35ab7d286758fd015e31bdaa0c43dfecea500443", func() string { return Decentral(o, mix).Render() }},
		{"Latency", "1ec03a8c30edd3ac080dd6946f4d46f1b5b29a3a09c2319cab5cc9db3d7ba976", func() string { return Latency(o, 24).Render() }},
		{"MetricsDemo", "66ceaa7f7ce11bdf74fc281dc6ac8aa9ea0fa52e4d6291a01369fba779ec0e69", func() string { return MetricsDemo(o).JSON() }},
	}
	for _, maxprocs := range []int{4, 1} {
		runtime.GOMAXPROCS(maxprocs)
		for _, c := range cases {
			out := c.render()
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Errorf("%s at GOMAXPROCS %d drifted from its golden:\n  got  %s\n  want %s\n%s",
					c.name, maxprocs, got, c.sha, out)
			}
		}
	}
}
