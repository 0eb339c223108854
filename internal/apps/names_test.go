package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"procctl/internal/sim"
	"procctl/internal/threads"
)

// TestTaskNamesMatchFormat checks every task name of every generator,
// the Big* instances included, against the fmt.Sprintf formats the
// generators first stored: a name is now derived from the TaskID by
// index arithmetic over the generator's shape — a row or stage split, a
// walk over gauss's shrinking steps or the merge tree's levels — where
// an off-by-one at a stage, step or level boundary would hide, and a
// name is part of the Spec export.
func TestTaskNamesMatchFormat(t *testing.T) {
	check := func(w *threads.Workload, id int, want string) {
		t.Helper()
		if got := w.TaskName(threads.TaskID(id)); got != want {
			t.Errorf("%s task %d is named %q, want %q", w.Name, id, got, want)
		}
	}
	matmul := func(w *threads.Workload, rows, chunks int) {
		for r := 0; r < rows; r++ {
			for c := 0; c < chunks; c++ {
				check(w, r*chunks+c, fmt.Sprintf("row%d.%d", r, c))
			}
		}
	}
	fft := func(w *threads.Workload, stages, perStage int) {
		for s := 0; s < stages; s++ {
			for i := 0; i < perStage; i++ {
				check(w, s*perStage+i, fmt.Sprintf("s%d.t%d", s, i))
			}
		}
	}
	gauss := func(w *threads.Workload, n, rowsPerTask int) {
		id := 0
		for k := 0; k < n-1; k++ {
			check(w, id, fmt.Sprintf("pivot%d", k))
			id++
			for r := 0; r < n-k-1; r += rowsPerTask {
				check(w, id, fmt.Sprintf("upd%d.%d", k, r))
				id++
			}
		}
		check(w, id, "backsub")
		if id+1 != w.Len() {
			t.Errorf("%s has %d tasks, walked %d", w.Name, w.Len(), id+1)
		}
	}
	sort := func(w *threads.Workload, leaves int) {
		for i := 0; i < leaves; i++ {
			check(w, i, fmt.Sprintf("heap%d", i))
		}
		id := leaves
		for lvl, width := 0, leaves/2; width >= 1; lvl, width = lvl+1, width/2 {
			for i := 0; i < width; i++ {
				check(w, id, fmt.Sprintf("merge%d.%d", lvl, i))
				id++
			}
		}
		if id != w.Len() {
			t.Errorf("%s has %d tasks, walked %d", w.Name, w.Len(), id)
		}
	}

	matmul(Matmul(1003, 11, sim.Millisecond), 1003, 11)
	fft(FFT(11, 1003, sim.Millisecond), 11, 1003)
	gauss(Gauss(114, 3, sim.Microsecond), 114, 3)
	sort(MergeSort(1024, sim.Millisecond, 8, sim.Microsecond), 1024)

	// The instances the figures run, every task of each: every FFT
	// stage boundary, every gauss step's pivot and last update (a short
	// one where rowsPerTask does not divide the step's rows), backsub,
	// every merge level. The dimensions are those of apps.go.
	matmul(BigMatmul(), 3328, 12)
	fft(BigFFT(), 12, 4096)
	gauss(BigGauss(), 460, 8)
	gauss(PaperGauss(), 256, 8)
	sort(BigSort(), 1024)
}

// specSHA256 pins the byte-exact Spec export of the instances small
// enough to export in a test (the export materializes every barrier
// edge).
var specSHA256 = map[string]string{
	"tinymatmul": "ae962161e6a87c3f321300031e987d927cc0ba1271fddc8a8cd0539f6782618b",
	"tinyfft":    "304cb33a4838254f94bd5a61dee52fad5483cfd498a72013de953854b6f52de0",
	"tinygauss":  "3c54c23c919b9aa27bd7707a77ae2ba456785d8099ef11f877e35068337b8c2f",
	"tinysort":   "6f6b039eb133c3fa25c6ba951756df9e34b2ef2834fa00d5f87decc987b55cd1",
	"matmul":     "91d4295f1e9002823e0d590009c832361f336d56aa048ae573cb6eae5cf8d464",
	"gauss":      "7823690ef5b14e6c3778781c5b6ae17b0348e5a4067abc89ed8f956efd8523e2",
	"sort":       "5774581f775bb083938561a2d1a987a549ab13634a6230bb31e61605291c585d",
}

func TestSpecExportUnchanged(t *testing.T) {
	builders := map[string]func() *threads.Workload{
		"tinymatmul": TinyMatmul, "tinyfft": TinyFFT, "tinygauss": TinyGauss, "tinysort": TinySort,
		"matmul": PaperMatmul, "gauss": PaperGauss, "sort": PaperSort,
	}
	for name, want := range specSHA256 {
		h := sha256.New()
		if err := builders[name]().WriteSpec(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: spec export hashes to %s, want %s", name, got, want)
		}
	}
}
