package experiments

import (
	"procctl/internal/apps"
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
	// One DAG per application for the whole figure: the baselines and
	// every (procs, seed) cell launch the same immutable workloads.
	wlmm, wlff := apps.PaperMatmul(), apps.PaperFFT()
	t1mm := Solo(o, wlmm, 1, false)
	t1ff := Solo(o, wlff, 1, false)

	r := &Fig1Result{
		Procs:  procsList,
		Matmul: make([]float64, len(procsList)),
		FFT:    make([]float64, len(procsList)),
	}
	type cell struct{ mm, ff float64 }
	cells := make([]cell, len(procsList)*o.Seeds)
	parallelFor(len(cells), func(i int) {
		procs := procsList[i/o.Seeds]
		oo := o
		oo.Seed = o.Seed + uint64(i%o.Seeds)
		s := NewSim(oo, false)
		mm := s.LaunchNow(1, wlmm, procs)
		ff := s.LaunchNow(2, wlff, procs)
		ok := s.RunUntil(func() bool { return mm.Done() && ff.Done() })
		s.mustFinish(ok, "fig1 mix")
		cells[i] = cell{
			mm: t1mm.Seconds() / mm.Elapsed().Seconds(),
			ff: t1ff.Seconds() / ff.Elapsed().Seconds(),
		}
	})
	for pi := range procsList {
		var mms, ffs []float64
		for si := 0; si < o.Seeds; si++ {
			mms = append(mms, cells[pi*o.Seeds+si].mm)
			ffs = append(ffs, cells[pi*o.Seeds+si].ff)
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
