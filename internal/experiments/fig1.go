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
	// One DAG per application for the whole figure, and one fan-out
	// over every simulation: the two one-process baselines, then the
	// pair at each process count on each seed.
	mm, ff := apps.PaperMatmul(), apps.PaperFFT()
	runs := []simRun{solo(o, mm, 1, false), solo(o, ff, 1, false)}
	for _, procs := range procsList {
		runs = append(runs, perSeed(simRun{o: o, apps: []launch{{wl: mm, procs: procs}, {wl: ff, procs: procs}}})...)
	}
	outs := fanOut(runs, simRun.procs, runSim)
	t1mm, t1ff := outs[0].elapsed[0], outs[1].elapsed[0]

	r := &Fig1Result{
		Procs:  procsList,
		Matmul: make([]float64, len(procsList)),
		FFT:    make([]float64, len(procsList)),
	}
	for pi := range procsList {
		cells := outs[2+pi*o.Seeds:][:o.Seeds]
		r.Matmul[pi] = meanSpeedup(t1mm, cells, 0)
		r.FFT[pi] = meanSpeedup(t1ff, cells, 1)
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
