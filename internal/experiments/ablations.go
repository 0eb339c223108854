package experiments

import (
	"procctl/internal/apps"
	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// PollSweepResult is the ABL-POLL ablation: sensitivity of the scheme to
// the application poll interval (the paper hard-codes 6 s).
type PollSweepResult struct {
	Mix       []Fig4Arrival
	Intervals []sim.Duration
	// MeanElapsed is the across-apps mean wall-clock time for each
	// interval, control on.
	MeanElapsed []sim.Duration
	// MeanOverload is the time-averaged excess of total runnable
	// processes over the CPU count while the mix ran.
	MeanOverload []float64
}

// PollSweep runs the Figure 4 mix with process control at each poll
// interval.
func PollSweep(o Options, intervals []sim.Duration) *PollSweepResult {
	o = o.withDefaults()
	if len(intervals) == 0 {
		intervals = []sim.Duration{
			500 * sim.Millisecond, sim.Second, 3 * sim.Second,
			6 * sim.Second, 12 * sim.Second, 24 * sim.Second,
		}
	}
	mix := DefaultFig4Mix()
	mixRun := simRun{o: o, control: true, apps: mixLaunches(mix), staggered: true, sample: true}
	var runs []simRun
	for _, iv := range intervals {
		mixRun.o.PollInterval = iv
		runs = append(runs, perSeed(mixRun)...)
	}
	outs := fanOut(runs, simRun.procs, runSim)
	res := &PollSweepResult{Mix: mix, Intervals: intervals}
	for i := range intervals {
		seeds := outs[i*o.Seeds:][:o.Seeds]
		var sum sim.Duration
		for _, e := range meanElapsed(seeds) {
			sum += e
		}
		res.MeanElapsed = append(res.MeanElapsed, sum/sim.Duration(len(mix)))
		res.MeanOverload = append(res.MeanOverload, meanOverload(seeds[0].samples, o.Machine.NumCPU))
	}
	return res
}

// Render prints the sweep.
func (r *PollSweepResult) Render() string {
	t := trace.NewTable("Ablation: application poll interval (Fig 4 mix, control on)",
		"poll interval", "mean wall-clock", "mean overload (procs > CPUs)")
	for i, iv := range r.Intervals {
		t.Row(iv, r.MeanElapsed[i], r.MeanOverload[i])
	}
	return t.String()
}

// CacheSweepResult is the ABL-CACHE ablation: Section 2's claim that
// cache corruption dominates on scalable machines with 50–100 cycle miss
// penalties. The matmul is run overloaded (24 processes) with and
// without control while the cache reload cost scales up.
type CacheSweepResult struct {
	Factors      []float64
	Uncontrolled []float64 // speed-up at 24 procs
	Controlled   []float64
}

// CacheSweep runs the overload point under machines whose cache reload
// is factor× slower than the Multimax.
func CacheSweep(o Options, factors []float64) *CacheSweepResult {
	o = o.withDefaults()
	if len(factors) == 0 {
		factors = []float64{1, 2, 5, 10}
	}
	const procs = 24
	mm := apps.PaperMatmul()
	var runs []simRun
	for _, f := range factors {
		oo := o
		oo.Machine = machine.Scalable(f)
		runs = append(runs, solo(oo, mm, 1, false))
		runs = append(runs, perSeed(solo(oo, mm, procs, false))...)
		runs = append(runs, perSeed(solo(oo, mm, procs, true))...)
	}
	outs := fanOut(runs, simRun.procs, runSim)
	res := &CacheSweepResult{Factors: factors}
	for range factors {
		t1 := outs[0].elapsed[0]
		outs = outs[1:]
		off, on := outs[:o.Seeds], outs[o.Seeds:][:o.Seeds]
		res.Uncontrolled = append(res.Uncontrolled, meanSpeedup(t1, off, 0))
		res.Controlled = append(res.Controlled, meanSpeedup(t1, on, 0))
		outs = outs[2*o.Seeds:]
	}
	return res
}

// Render prints the sweep.
func (r *CacheSweepResult) Render() string {
	t := trace.NewTable("Ablation: cache reload cost (matmul, 24 procs on 16 CPUs)",
		"reload ×", "speed-up original", "speed-up controlled")
	for i, f := range r.Factors {
		t.Row(f, r.Uncontrolled[i], r.Controlled[i])
	}
	return t.String()
}

// QuantumSweepResult is the ABL-QUANTUM ablation: how the time-slice
// length changes the overload collapse (Section 2 points 3-4).
type QuantumSweepResult struct {
	Quanta []sim.Duration
	Matmul []float64 // fig1-style mix speed-ups at 24+24 procs
	FFT    []float64
}

// QuantumSweep runs the Figure 1 mix at 24 processes per application,
// no control, across kernel quanta.
func QuantumSweep(o Options, quanta []sim.Duration) *QuantumSweepResult {
	o = o.withDefaults()
	if len(quanta) == 0 {
		quanta = []sim.Duration{
			10 * sim.Millisecond, 30 * sim.Millisecond, 100 * sim.Millisecond,
			300 * sim.Millisecond, 1000 * sim.Millisecond,
		}
	}
	const procs = 24
	mm, ff := apps.PaperMatmul(), apps.PaperFFT()
	var runs []simRun
	for _, q := range quanta {
		oo := o
		oo.Kernel.Quantum = q
		runs = append(runs, solo(oo, mm, 1, false), solo(oo, ff, 1, false))
		runs = append(runs, perSeed(simRun{o: oo, apps: []launch{{wl: mm, procs: procs}, {wl: ff, procs: procs}}})...)
	}
	outs := fanOut(runs, simRun.procs, runSim)
	res := &QuantumSweepResult{Quanta: quanta}
	for range quanta {
		t1mm, t1ff := outs[0].elapsed[0], outs[1].elapsed[0]
		outs = outs[2:]
		res.Matmul = append(res.Matmul, meanSpeedup(t1mm, outs[:o.Seeds], 0))
		res.FFT = append(res.FFT, meanSpeedup(t1ff, outs[:o.Seeds], 1))
		outs = outs[o.Seeds:]
	}
	return res
}

// Render prints the sweep.
func (r *QuantumSweepResult) Render() string {
	t := trace.NewTable("Ablation: kernel quantum (matmul+fft, 24 procs each, no control)",
		"quantum", "matmul speed-up", "fft speed-up")
	for i, q := range r.Quanta {
		t.Row(q, r.Matmul[i], r.FFT[i])
	}
	return t.String()
}

// UncontrolledMixResult is the ABL-UNCTL experiment: the paper's
// Section 7 motivation. A process-controlled gauss shares the machine
// with an uncontrolled matmul; under timeshare the greedy application
// starves the controlled one, while the partition policy restores
// fairness.
type UncontrolledMixResult struct {
	Policies        []string
	ControlledApp   []sim.Duration // gauss wall-clock (it uses process control)
	UncontrolledApp []sim.Duration // matmul wall-clock (it does not)
	ControlledShare []float64      // gauss's fraction of the two apps' CPU time
}

// UncontrolledMix runs the controlled-vs-greedy scenario under the
// timeshare and partition policies.
func UncontrolledMix(o Options) *UncontrolledMixResult {
	o = o.withDefaults()
	policies := []string{"timeshare", "partition"}
	_, factories := NamedPolicies()
	// Only gauss registers with the server; the greedy matmul bypasses it.
	mixRun := simRun{o: o, control: true, apps: []launch{
		{wl: apps.BigGauss(), procs: 16},
		{wl: apps.BigMatmul(), procs: 16, greedy: true},
	}}
	var runs []simRun
	shares := make([]float64, len(policies)*o.Seeds)
	for p, name := range policies {
		mixRun.o.NewPolicy = factories[name]
		for si, r := range perSeed(mixRun) {
			r.read = func(s *Sim, _ []*threads.App) { shares[p*o.Seeds+si] = gaussShare(s.K) }
			runs = append(runs, r)
		}
	}
	outs := fanOut(runs, simRun.procs, runSim)
	res := &UncontrolledMixResult{Policies: policies}
	for p := range policies {
		elapsed := meanElapsed(outs[p*o.Seeds:][:o.Seeds])
		res.ControlledApp = append(res.ControlledApp, elapsed[0])
		res.UncontrolledApp = append(res.UncontrolledApp, elapsed[1])
		res.ControlledShare = append(res.ControlledShare, mean(shares[p*o.Seeds:][:o.Seeds]))
	}
	return res
}

// gaussShare is application 1's fraction of the CPU time applications 1
// and 2 received.
func gaussShare(k *kernel.Kernel) float64 {
	var gcpu, mcpu sim.Duration
	for _, p := range k.Processes() {
		switch p.App() {
		case 1:
			gcpu += p.Stats.CPUTime
		case 2:
			mcpu += p.Stats.CPUTime
		}
	}
	if gcpu+mcpu == 0 {
		return 0
	}
	return float64(gcpu) / float64(gcpu+mcpu)
}

// Render prints the comparison.
func (r *UncontrolledMixResult) Render() string {
	t := trace.NewTable("Section 7: controlled gauss vs uncontrolled matmul (16 procs each)",
		"policy", "gauss (controlled)", "matmul (greedy)", "gauss CPU share")
	for i, p := range r.Policies {
		t.Row(p, r.ControlledApp[i], r.UncontrolledApp[i], r.ControlledShare[i])
	}
	return t.String()
}
