package trace_test

import (
	"io"
	"testing"

	"procctl/internal/apps"
	"procctl/internal/experiments"
	"procctl/internal/kernel"
	"procctl/internal/sim"
	"procctl/internal/threads"
	"procctl/internal/trace"
)

// BenchmarkTraceRecord is one recorded virtual second of the Fig4-style
// mix (matmul + fft + background, control on): the cost of the
// recorder's JSONL encoding on top of the simulation. It lives in an
// external test package because internal/experiments imports trace.
func BenchmarkTraceRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSim(experiments.Options{Seed: 1, Seeds: 1}, true)
		rec := trace.NewRecorder(s.K, io.Discard, trace.Meta{Seed: 1, Control: true})
		cfg := threads.Config{Procs: 12}
		if s.Server != nil {
			cfg.Controller = s.Server
		}
		threads.Launch(s.K, kernel.AppID(1), apps.PaperMatmul(), cfg)
		threads.Launch(s.K, kernel.AppID(2), apps.PaperFFT(), cfg)
		apps.Background(s.K, 2, 20*sim.Millisecond, 30*sim.Millisecond)
		s.Eng.Run(sim.Time(sim.Second))
		s.K.Finalize()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		s.K.Shutdown()
	}
}
