package apps

import (
	"strings"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

func TestMatmulShape(t *testing.T) {
	w := Matmul(8, 4, sim.Millisecond)
	if w.Len() != 32 {
		t.Errorf("Len = %d, want 32", w.Len())
	}
	if w.TotalWork() != 32*sim.Millisecond {
		t.Errorf("TotalWork = %v", w.TotalWork())
	}
	// All tasks independent: critical path is one task.
	if w.CriticalPath() != sim.Millisecond {
		t.Errorf("CriticalPath = %v, want 1ms", w.CriticalPath())
	}
	if err := w.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFFTShape(t *testing.T) {
	const stages, per = 4, 8
	w := FFT(stages, per, sim.Millisecond)
	if w.Len() != stages*per {
		t.Errorf("Len = %d", w.Len())
	}
	// Critical path: one task per stage.
	if w.CriticalPath() != stages*sim.Millisecond {
		t.Errorf("CriticalPath = %v, want %v", w.CriticalPath(), stages*sim.Millisecond)
	}
	if err := w.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGaussShape(t *testing.T) {
	const n = 16
	w := Gauss(n, 2, 10*sim.Microsecond)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Total update work ~ sum over k of (m-1)*m*perElem.
	var want sim.Duration
	for k := 0; k < n-1; k++ {
		m := n - k
		want += sim.Duration(int64(m-1)*int64(m)) * 10 * sim.Microsecond  // updates
		want += sim.Duration(m)*10*sim.Microsecond/4 + 50*sim.Microsecond // pivot
	}
	want += n * 10 * sim.Microsecond // back substitution
	if got := w.TotalWork(); got != want {
		t.Errorf("TotalWork = %v, want %v", got, want)
	}
	// Deep dependency chain: critical path greater than any single stage.
	if w.CriticalPath() <= 0 {
		t.Error("no critical path")
	}
}

func TestMergeSortShape(t *testing.T) {
	w := MergeSort(8, 10*sim.Millisecond, 100, sim.Microsecond)
	// 8 leaves + 4 + 2 + 1 merges.
	if w.Len() != 15 {
		t.Errorf("Len = %d, want 15", w.Len())
	}
	// Final merge handles all items: 800 µs of work; total merge work =
	// 3 levels × 800 µs.
	want := 8*10*sim.Millisecond + 3*800*sim.Microsecond
	if got := w.TotalWork(); got != want {
		t.Errorf("TotalWork = %v, want %v", got, want)
	}
	if err := w.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeSortPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MergeSort(6) accepted")
		}
	}()
	MergeSort(6, sim.Millisecond, 10, sim.Microsecond)
}

func TestBuilderPanics(t *testing.T) {
	cases := map[string]func(){
		"matmul": func() { Matmul(0, 1, 1) },
		"fft":    func() { FFT(1, 0, 1) },
		"gauss":  func() { Gauss(1, 1, 1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid args accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fft", "sort", "gauss", "matmul", "bigfft", "bigsort", "biggauss", "bigmatmul"} {
		w := ByName(name)
		if w == nil {
			t.Errorf("ByName(%q) = nil", name)
			continue
		}
		if err := w.Validate(); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if !strings.Contains(name, w.Name) {
			t.Errorf("ByName(%q) returned workload %q", name, w.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown name returned a workload")
	}
}

func TestPaperScaleSequentialTimes(t *testing.T) {
	// The paper-scale instances should be tens of seconds sequential.
	for _, name := range []string{"fft", "sort", "gauss", "matmul"} {
		w := ByName(name)
		sec := w.TotalWork().Seconds()
		if sec < 15 || sec > 45 {
			t.Errorf("%s sequential work %.1fs, want 15-45s", name, sec)
		}
	}
	// Big instances: 2-5 minutes sequential.
	for _, name := range []string{"bigfft", "bigsort", "biggauss", "bigmatmul"} {
		w := ByName(name)
		sec := w.TotalWork().Seconds()
		if sec < 100 || sec > 300 {
			t.Errorf("%s sequential work %.1fs, want 100-300s", name, sec)
		}
	}
}

func TestTinyInstancesExecute(t *testing.T) {
	for _, wl := range []*threads.Workload{TinyMatmul(), TinyFFT(), TinyGauss(), TinySort()} {
		eng := sim.NewEngine(1)
		mac := machine.New(machine.Config{NumCPU: 4})
		k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 50 * sim.Millisecond})
		a := threads.Launch(k, 1, wl, threads.Config{Procs: 4})
		for !a.Done() && eng.Now() < sim.Time(60*sim.Second) {
			eng.Run(eng.Now().Add(sim.Second))
		}
		if !a.Done() {
			t.Errorf("%s did not finish", wl.Name)
		}
	}
}

func TestBackgroundLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 4})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 50 * sim.Millisecond})
	procs := Background(k, 2, 10*sim.Millisecond, 10*sim.Millisecond)
	if len(procs) != 2 {
		t.Fatalf("spawned %d", len(procs))
	}
	eng.Run(sim.Time(sim.Second))
	for _, p := range procs {
		if p.App() != kernel.AppNone {
			t.Error("background process has a controlled AppID")
		}
		// 50% duty cycle: CPU time should be roughly half the elapsed.
		cpu := p.Stats.CPUTime.Seconds()
		if cpu < 0.3 || cpu > 0.7 {
			t.Errorf("background CPU time %.2fs over 1s, want ≈0.5", cpu)
		}
	}
}

func TestBackgroundFullyBusy(t *testing.T) {
	eng := sim.NewEngine(1)
	mac := machine.New(machine.Config{NumCPU: 2})
	k := kernel.New(eng, mac, kernel.NewTimeshare(), kernel.Config{Quantum: 50 * sim.Millisecond})
	procs := Background(k, 1, 10*sim.Millisecond, 0)
	eng.Run(sim.Time(sim.Second))
	cpu := procs[0].Stats.CPUTime.Seconds()
	if cpu < 0.95 {
		t.Errorf("zero-idle background only used %.2fs of CPU in 1s", cpu)
	}
}
