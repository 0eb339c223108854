package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"procctl/internal/sim"
	"procctl/internal/threads"
)

// TestTaskNamesMatchFormat checks every generator's task names, up to
// four-digit indices, against the fmt.Sprintf formats they were first
// written with: the generators now assemble names by hand, and a name
// is part of the Spec export.
func TestTaskNamesMatchFormat(t *testing.T) {
	check := func(w *threads.Workload, id int, want string) {
		t.Helper()
		if got := w.TaskName(threads.TaskID(id)); got != want {
			t.Errorf("%s task %d is named %q, want %q", w.Name, id, got, want)
		}
	}

	mm := Matmul(1003, 11, sim.Millisecond)
	for r := 0; r < 1003; r++ {
		for c := 0; c < 11; c++ {
			check(mm, r*11+c, fmt.Sprintf("row%d.%d", r, c))
		}
	}

	ff := FFT(11, 1003, sim.Millisecond)
	for s := 0; s < 11; s++ {
		for i := 0; i < 1003; i++ {
			check(ff, s*1003+i, fmt.Sprintf("s%d.t%d", s, i))
		}
	}

	const n, rowsPerTask = 114, 3
	g := Gauss(n, rowsPerTask, sim.Microsecond)
	id := 0
	for k := 0; k < n-1; k++ {
		check(g, id, fmt.Sprintf("pivot%d", k))
		id++
		for r := 0; r < n-k-1; r += rowsPerTask {
			check(g, id, fmt.Sprintf("upd%d.%d", k, r))
			id++
		}
	}
	check(g, id, "backsub")
	if id+1 != g.Len() {
		t.Errorf("gauss has %d tasks, walked %d", g.Len(), id+1)
	}

	ms := MergeSort(1024, sim.Millisecond, 8, sim.Microsecond)
	for i := 0; i < 1024; i++ {
		check(ms, i, fmt.Sprintf("heap%d", i))
	}
	id = 1024
	for lvl, width := 0, 512; width >= 1; lvl, width = lvl+1, width/2 {
		for i := 0; i < width; i++ {
			check(ms, id, fmt.Sprintf("merge%d.%d", lvl, i))
			id++
		}
	}
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
