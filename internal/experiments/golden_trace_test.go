package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"testing"

	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/trace"
)

// fig4GoldenSHA256 pins the byte-exact JSONL trace of DemoMix — matmul
// and fft with 12 processes each plus 2 background processes, all from
// t = 0, not Figure 4's staggered mix — as `procctl-trace record -seed 1
// -seconds 1 -control` runs it, against the current event engine and
// trace encoder. Unlike
// TestSameSeedByteIdenticalTrace, which compares two runs of the same
// binary, this golden detects *cross-version* drift: an engine or
// encoder change that altered the schedule or the serialization would
// land here even though both of its own runs still agree.
//
// If a PR changes scheduling behavior or the trace format on purpose,
// regenerate with:
//
//	go test ./internal/experiments -run TestFig4TraceGolden -update-golden
const fig4GoldenSHA256 = "544b6a5fe8de812437bfa6e052544f40f53e3692c1065924ba9ba2d16464732f"

var updateGolden = flag.Bool("update-golden", false, "print the new Fig4 trace golden hash instead of failing")

// recordFig4Golden records DemoMix as `procctl-trace record` does: seed
// 1, timeshare, process control on, one virtual second.
func recordFig4Golden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	var rec *trace.Recorder
	DemoMix(Options{Seed: 1, Seeds: 1}, true, sim.Second, func(k *kernel.Kernel) {
		rec = trace.NewRecorder(k, &buf, trace.Meta{Seed: 1, Control: true})
	})
	if err := rec.Close(); err != nil {
		t.Fatalf("closing recorder: %v", err)
	}
	return buf.Bytes()
}

func TestFig4TraceGolden(t *testing.T) {
	sum := sha256.Sum256(recordFig4Golden(t))
	got := hex.EncodeToString(sum[:])
	if *updateGolden {
		fmt.Fprintf(os.Stderr, "fig4GoldenSHA256 = %q\n", got)
		if got != fig4GoldenSHA256 {
			t.Skipf("new golden: %s (update the constant)", got)
		}
		return
	}
	if got != fig4GoldenSHA256 {
		t.Fatalf("Fig4 trace drifted from the golden:\n  got  %s\n  want %s\n"+
			"An engine, kernel, or trace-encoder change altered the byte-exact "+
			"schedule. If intentional, re-pin with -update-golden.", got, fig4GoldenSHA256)
	}
}
