package experiments

import (
	"procctl/internal/apps"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// Fig1Result holds the data of the paper's Figure 1: speed-up of a
// matrix multiplication and an FFT started simultaneously, as the number
// of processes per application varies. No process control.
type Fig1Result struct {
	Procs  []int
	Matmul []float64 // speed-up, averaged over seeds
	FFT    []float64
}

// Fig1 reproduces Figure 1. procsList defaults to 1..24 in steps the
// paper plots (1, 2, 4, 8, 12, 16, 20, 24).
func Fig1(o Options, procsList []int) *Fig1Result {
	o = o.withDefaults()
	if len(procsList) == 0 {
		procsList = []int{1, 2, 4, 8, 12, 16, 20, 24}
	}
	// One DAG per application for the whole figure, and one flat fan-out
	// over every simulation: the two one-process baselines and the
	// (procs, seed) cells.
	builders := []func() *threads.Workload{apps.PaperMatmul, apps.PaperFFT}
	wls := make([]*threads.Workload, len(builders))
	parallelFor(len(wls), func(i int) { wls[i] = builders[i]() })

	var t1 [2]sim.Duration
	cells := make([][2]sim.Duration, len(procsList)*o.Seeds) // [procs][seed][matmul, fft]
	runs := []simRun{
		{1, func() { t1[0] = Solo(o, wls[0], 1, false) }},
		{1, func() { t1[1] = Solo(o, wls[1], 1, false) }},
	}
	for i := range cells {
		procs, oo := procsList[i/o.Seeds], o
		oo.Seed = o.Seed + uint64(i%o.Seeds)
		runs = append(runs, simRun{procs, func() {
			s := NewSim(oo, false)
			mm := s.LaunchNow(1, wls[0], procs)
			ff := s.LaunchNow(2, wls[1], procs)
			ok := s.RunUntil(func() bool { return mm.Done() && ff.Done() })
			s.mustFinish(ok, "fig1 mix")
			cells[i] = [2]sim.Duration{mm.Elapsed(), ff.Elapsed()}
		}})
	}
	fanOut(runs)

	r := &Fig1Result{
		Procs:  procsList,
		Matmul: make([]float64, len(procsList)),
		FFT:    make([]float64, len(procsList)),
	}
	for pi := range procsList {
		var mms, ffs []float64
		for _, c := range cells[pi*o.Seeds : (pi+1)*o.Seeds] {
			mms = append(mms, t1[0].Seconds()/c[0].Seconds())
			ffs = append(ffs, t1[1].Seconds()/c[1].Seconds())
		}
		r.Matmul[pi] = mean(mms)
		r.FFT[pi] = mean(ffs)
	}
	return r
}

// SpeedupAt returns the two speed-ups at a given process count, or
// (0, 0) if that point was not swept.
func (r *Fig1Result) SpeedupAt(procs int) (mm, ff float64) {
	for i, p := range r.Procs {
		if p == procs {
			return r.Matmul[i], r.FFT[i]
		}
	}
	return 0, 0
}

// Render prints the figure's data as a table.
func (r *Fig1Result) Render() string {
	t := trace.NewTable(
		"Figure 1: speed-up of matmul and fft run simultaneously, no process control (16 CPUs)",
		"procs/app", "matmul", "fft")
	for i, p := range r.Procs {
		t.Row(p, r.Matmul[i], r.FFT[i])
	}
	return t.String()
}
