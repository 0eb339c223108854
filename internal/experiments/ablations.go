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
	wls := mixWorkloads(mix)
	res := &PollSweepResult{Mix: mix, Intervals: intervals}
	for _, iv := range intervals {
		oo := o
		oo.PollInterval = iv
		run := fig4Run(oo, mix, wls, true)
		var sum sim.Duration
		for _, e := range run.Elapsed {
			sum += e
		}
		res.MeanElapsed = append(res.MeanElapsed, sum/sim.Duration(len(run.Elapsed)))

		ncpu := oo.Machine.NumCPU
		if ncpu == 0 {
			ncpu = machine.Multimax16().NumCPU
		}
		over, n := 0.0, 0
		for _, smp := range run.Samples {
			if smp.Total > ncpu {
				over += float64(smp.Total - ncpu)
			}
			n++
		}
		if n > 0 {
			over /= float64(n)
		}
		res.MeanOverload = append(res.MeanOverload, over)
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
	res := &CacheSweepResult{Factors: factors}
	const procs = 24
	mm := apps.PaperMatmul()
	for _, f := range factors {
		oo := o
		oo.Machine = machine.Scalable(f)
		t1 := Solo(oo, mm, 1, false)
		var off, on []float64
		for si := 0; si < o.Seeds; si++ {
			os := oo
			os.Seed = o.Seed + uint64(si)
			off = append(off, t1.Seconds()/Solo(os, mm, procs, false).Seconds())
			on = append(on, t1.Seconds()/Solo(os, mm, procs, true).Seconds())
		}
		res.Uncontrolled = append(res.Uncontrolled, mean(off))
		res.Controlled = append(res.Controlled, mean(on))
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
	res := &QuantumSweepResult{Quanta: quanta}
	const procs = 24
	wlmm, wlff := apps.PaperMatmul(), apps.PaperFFT()
	for _, q := range quanta {
		oo := o
		oo.Kernel.Quantum = q
		t1mm, t1ff := Solo(oo, wlmm, 1, false), Solo(oo, wlff, 1, false)
		var mms, ffs []float64
		for si := 0; si < o.Seeds; si++ {
			os := oo
			os.Seed = o.Seed + uint64(si)
			s := NewSim(os, false)
			mm := s.LaunchNow(1, wlmm, procs)
			ff := s.LaunchNow(2, wlff, procs)
			ok := s.RunUntil(func() bool { return mm.Done() && ff.Done() })
			s.mustFinish(ok, "quantum sweep mix")
			mms = append(mms, t1mm.Seconds()/mm.Elapsed().Seconds())
			ffs = append(ffs, t1ff.Seconds()/ff.Elapsed().Seconds())
		}
		res.Matmul = append(res.Matmul, mean(mms))
		res.FFT = append(res.FFT, mean(ffs))
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
	res := &UncontrolledMixResult{}
	wlGauss, wlMatmul := apps.BigGauss(), apps.BigMatmul()
	policies := []struct {
		name string
		make func() kernel.Policy
	}{
		{"timeshare", func() kernel.Policy { return kernel.NewTimeshare() }},
		{"partition", func() kernel.Policy { return kernel.NewPartition() }},
	}
	for _, pol := range policies {
		oo := o
		oo.NewPolicy = pol.make
		type out struct {
			g, m  sim.Duration
			share float64
		}
		outs := make([]out, o.Seeds)
		parallelFor(o.Seeds, func(si int) {
			os := oo
			os.Seed = o.Seed + uint64(si)
			s := NewSim(os, true) // server present; only gauss registers
			gauss := s.LaunchNow(1, wlGauss, 16)
			// The greedy application bypasses the controller.
			cfg := os.Threads
			cfg.Procs = 16
			matmul := threads.Launch(s.K, 2, wlMatmul, cfg)
			ok := s.RunUntil(func() bool { return gauss.Done() && matmul.Done() })
			s.mustFinish(ok, "uncontrolled mix under "+pol.name)
			var gcpu, mcpu sim.Duration
			for _, p := range s.K.Processes() {
				switch p.App() {
				case 1:
					gcpu += p.Stats.CPUTime
				case 2:
					mcpu += p.Stats.CPUTime
				}
			}
			share := 0.0
			if gcpu+mcpu > 0 {
				share = float64(gcpu) / float64(gcpu+mcpu)
			}
			outs[si] = out{g: gauss.Elapsed(), m: matmul.Elapsed(), share: share}
		})
		var gsum, msum sim.Duration
		var shares []float64
		for _, ot := range outs {
			gsum += ot.g
			msum += ot.m
			shares = append(shares, ot.share)
		}
		res.Policies = append(res.Policies, pol.name)
		res.ControlledApp = append(res.ControlledApp, gsum/sim.Duration(o.Seeds))
		res.UncontrolledApp = append(res.UncontrolledApp, msum/sim.Duration(o.Seeds))
		res.ControlledShare = append(res.ControlledShare, mean(shares))
	}
	return res
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
