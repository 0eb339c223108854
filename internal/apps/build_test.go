package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/machine"
	"procctl/internal/sim"
	"procctl/internal/threads"
)

// retireSHA256 pins, for every generator, the order in which one worker
// retires the tasks — with a FIFO ready queue that is the order the
// runtime enumerates each finished task's successors in, barrier groups
// included — preceded by the task count, the lock count and the total
// work. The Spec export pins the same for the instances small enough to
// export (specSHA256); this reaches the big ones. Recorded with the
// per-task successor slices, before the spans moved into one arena
// (tinymatmul and tinyfft agree: 32 one-millisecond tasks retired 0–31).
var retireSHA256 = map[string]string{
	"tinymatmul": "2072c81074979eacd8f9f7ba12fa4e561e44795d336245cd1c80243b3c5d0203",
	"tinyfft":    "2072c81074979eacd8f9f7ba12fa4e561e44795d336245cd1c80243b3c5d0203",
	"tinygauss":  "6e69d22bc4581cfda7788680a5c9f37aab4bc54c9a93ed2b35ac565dcc58e6fb",
	"tinysort":   "faa38a827d2d76354baed6f913f32f70979c5138f1b6479bfaca68f91f524b6e",
	"matmul":     "923cfbcb0537a309b75aa2f11e3366dcfaff7d0347c2023fa27cb3cf14edc157",
	"fft":        "ce944fd61f57c3a4e49f595640b630fa82507f57bdde7cbd5d02d916958098d4",
	"gauss":      "33dcc29a86e192c102fec0cb5f4ee518fdde16b725bafcdcf99078000587dfa2",
	"sort":       "8762c5886e8feabaacebbe511a4f4e7568612a3cc47940eaacaa183b7de3288a",
	"bigmatmul":  "a49260092a09f8a0ec5a11bcd82daa51b8eb315964fd78fab1026bad205cb0fd",
	"bigfft":     "f1890c296c0ee4218aefec03ac984d1e3782f32c03d51f65d02236f1289fec25",
	"biggauss":   "959a82eaedbb12cbef6ef7d6d5084d12708c0f9ccdd2aac205b48614ea6e0ff9",
	"bigsort":    "28dbee72c741f452483f7ed0b4699a1b94170520d0a07832d5b935ece7829bd4",
}

func TestGeneratorsRetireInTheSameOrder(t *testing.T) {
	builders := map[string]func() *threads.Workload{
		"tinymatmul": TinyMatmul, "tinyfft": TinyFFT, "tinygauss": TinyGauss, "tinysort": TinySort,
		"matmul": PaperMatmul, "fft": PaperFFT, "gauss": PaperGauss, "sort": PaperSort,
		"bigmatmul": BigMatmul, "bigfft": BigFFT, "biggauss": BigGauss, "bigsort": BigSort,
	}
	for name, build := range builders {
		wl := build()
		h := sha256.New()
		put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
		put(int64(wl.Len()))
		put(int64(wl.NumLocks()))
		put(int64(wl.TotalWork()))
		eng := sim.NewEngine(1)
		k := kernel.New(eng, machine.New(machine.Config{NumCPU: 1}), kernel.NewTimeshare(), kernel.Config{Quantum: sim.Second})
		a := threads.Launch(k, 1, wl, threads.Config{
			Procs:      1,
			OnTaskDone: func(id threads.TaskID) { put(int64(id)) },
		})
		eng.RunUntilIdle()
		k.Shutdown()
		if !a.Done() {
			t.Errorf("%s did not finish", name)
			continue
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != retireSHA256[name] {
			t.Errorf("%s: retirement order hashes to %s, want %s", name, got, retireSHA256[name])
		}
	}
}

// TestBuildAllocatesPerWorkloadNotPerTask pins what the span arena is
// for: building BigFFT's 49,152 tasks allocates the arrays (tasks,
// spans, names, eleven barrier groups and their growth steps), not an
// object per task.
func TestBuildAllocatesPerWorkloadNotPerTask(t *testing.T) {
	tasks := BigFFT().Len()
	if n := testing.AllocsPerRun(3, func() { BigFFT() }); n >= float64(tasks)/10 {
		t.Errorf("building BigFFT allocates %.0f objects for %d tasks, want fewer than a tenth", n, tasks)
	}
}

// BenchmarkBuildFig4Mix is the fixed cost of a Fig4 call outside the
// event loop: the three DAGs of the default mix.
func BenchmarkBuildFig4Mix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"bigfft", "biggauss", "bigmatmul"} {
			if ByName(name) == nil {
				b.Fatal(name)
			}
		}
	}
}
