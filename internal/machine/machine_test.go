package machine

import (
	"slices"
	"testing"
	"testing/quick"

	"procctl/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	good := Multimax16()
	if err := good.Validate(); err != nil {
		t.Fatalf("Multimax16 invalid: %v", err)
	}
	cases := []Config{
		{NumCPU: 0},
		{NumCPU: -1},
		{NumCPU: 4, ContextSwitch: -1},
		{NumCPU: 4, CacheSize: -5},
		{NumCPU: 4, CacheSize: 1024, ReloadRate: 0},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{NumCPU: 0})
}

func TestMachineShape(t *testing.T) {
	m := New(Multimax16())
	if m.NumCPU() != 16 {
		t.Fatalf("NumCPU = %d", m.NumCPU())
	}
	for i := 0; i < m.NumCPU(); i++ {
		if m.CPU(i).ID() != i {
			t.Fatalf("CPU indexing broken at %d", i)
		}
	}
}

func TestScalableSlowsReload(t *testing.T) {
	base := Multimax16()
	scaled := Scalable(10)
	if scaled.ReloadRate >= base.ReloadRate {
		t.Errorf("Scalable(10) reload rate %v not slower than %v", scaled.ReloadRate, base.ReloadRate)
	}
	if Scalable(0).ReloadRate != base.ReloadRate {
		t.Errorf("Scalable(0) should not change the rate")
	}
}

func TestDispatchFirstTouchPaysFullReload(t *testing.T) {
	cfg := Multimax16()
	m := New(cfg)
	cpu := m.CPU(0)
	const ws = 128 << 10
	sw, rl := cpu.Dispatch(1, ws)
	if sw != cfg.ContextSwitch {
		t.Errorf("first dispatch switch cost %v, want %v", sw, cfg.ContextSwitch)
	}
	wantReload := sim.Duration(float64(ws) / cfg.ReloadRate)
	if rl != wantReload {
		t.Errorf("cold reload %v, want %v", rl, wantReload)
	}
}

func TestDispatchSameProcessIsFree(t *testing.T) {
	m := New(Multimax16())
	cpu := m.CPU(0)
	cpu.Dispatch(1, 64<<10)
	sw, rl := cpu.Dispatch(1, 64<<10)
	if sw != 0 || rl != 0 {
		t.Errorf("redispatching the resident process cost %v + %v", sw, rl)
	}
}

func TestDispatchAlternationEvicts(t *testing.T) {
	cfg := Multimax16() // 256 KiB cache
	m := New(cfg)
	cpu := m.CPU(0)
	const ws = 256 << 10 // each working set fills the cache
	cpu.Dispatch(1, ws)
	cpu.Dispatch(2, ws) // fully evicts 1
	_, rl := cpu.Dispatch(1, ws)
	want := sim.Duration(float64(ws) / cfg.ReloadRate)
	if rl != want {
		t.Errorf("reload after full eviction %v, want %v", rl, want)
	}
}

func TestDispatchPartialEviction(t *testing.T) {
	cfg := Multimax16()
	m := New(cfg)
	cpu := m.CPU(0)
	const ws = 64 << 10 // four working sets fit in the 256 KiB cache
	cpu.Dispatch(1, ws)
	cpu.Dispatch(2, ws)
	_, rl := cpu.Dispatch(1, ws)
	if rl != 0 {
		t.Errorf("process 1 evicted even though both sets fit: reload %v", rl)
	}
}

func TestResidencyBounds(t *testing.T) {
	cfg := Multimax16()
	m := New(cfg)
	cpu := m.CPU(0)
	err := quick.Check(func(id uint8, wsKB uint16) bool {
		ws := int64(wsKB%512+1) << 10
		cpu.Dispatch(FootprintID(id), ws)
		r := cpu.Residency(FootprintID(id), ws)
		return r >= 0 && r <= 1
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestResidencyAfterDispatchIsFull(t *testing.T) {
	m := New(Multimax16())
	cpu := m.CPU(0)
	cpu.Dispatch(1, 64<<10)
	if r := cpu.Residency(1, 64<<10); r != 1 {
		t.Errorf("just-dispatched residency %v, want 1", r)
	}
}

func TestEvict(t *testing.T) {
	m := New(Multimax16())
	cpu := m.CPU(0)
	cpu.Dispatch(1, 64<<10)
	cpu.Evict(1)
	if r := cpu.Residency(1, 64<<10); r != 0 {
		t.Errorf("evicted residency %v, want 0", r)
	}
	if cpu.lastFootprint != -1 {
		t.Errorf("lastFootprint after evict = %v", cpu.lastFootprint)
	}
	// Dispatch after evict pays the context switch again.
	sw, _ := cpu.Dispatch(1, 64<<10)
	if sw == 0 {
		t.Error("dispatch after evict should pay a context switch")
	}
}

func TestNoCacheMachine(t *testing.T) {
	m := New(Config{NumCPU: 2, ContextSwitch: 100})
	cpu := m.CPU(0)
	sw, rl := cpu.Dispatch(1, 1<<20)
	if rl != 0 {
		t.Errorf("cacheless machine charged reload %v", rl)
	}
	if sw != 100 {
		t.Errorf("switch cost %v", sw)
	}
	if r := cpu.Residency(1, 1<<20); r != 1 {
		t.Errorf("cacheless residency %v, want 1 (no penalty)", r)
	}
}

func TestUtilization(t *testing.T) {
	m := New(Multimax16())
	cpu := m.CPU(0)
	cpu.BusyTime = 500 * sim.Millisecond
	if u := cpu.Utilization(sim.Second); u != 0.5 {
		t.Errorf("utilization %v, want 0.5", u)
	}
	if u := cpu.Utilization(0); u != 0 {
		t.Errorf("zero-elapsed utilization %v", u)
	}
}

func TestDispatchAccounting(t *testing.T) {
	m := New(Multimax16())
	cpu := m.CPU(0)
	cpu.Dispatch(1, 64<<10)
	cpu.Dispatch(2, 64<<10)
	cpu.Dispatch(1, 64<<10)
	if cpu.Switches != 3 {
		t.Errorf("Switches = %d, want 3", cpu.Switches)
	}
	if cpu.SwitchTime == 0 || cpu.ReloadTime == 0 {
		t.Error("switch/reload time not accumulated")
	}
}

// TestDispatchThreeFootprintsCoexist pins the eviction pass where it
// spreads over more than one other footprint: working sets smaller than
// the cache (96, 80 and 112 KiB in 256 KiB), so three coexist. The
// resident list keeps its order — oldest load first, a re-dispatched
// footprint moved to the end — so the shrunk sizes and the total they
// sum to are the same on every run, to the last bit.
func TestDispatchThreeFootprintsCoexist(t *testing.T) {
	cpu := New(Multimax16()).CPU(0)
	steps := []struct {
		f        FootprintID
		ws       int64
		reload   sim.Duration
		resident []residency
	}{
		{1, 96 << 10, 4096, []residency{{1, 98304}}},
		{2, 80 << 10, 3413, []residency{{1, 98304}, {2, 81920}}},
		{3, 112 << 10, 4778, []residency{{1, 80430.54545454546}, {2, 67025.45454545454}, {3, 114688}}},
		{1, 96 << 10, 744, []residency{{2, 60432.78688524591}, {3, 103407.21311475411}, {1, 98304}}},
		{2, 80 << 10, 895, []residency{{3, 92391.79760319575}, {1, 87832.20239680426}, {2, 81920}}},
	}
	for i, s := range steps {
		_, rl := cpu.Dispatch(s.f, s.ws)
		if rl != s.reload {
			t.Errorf("step %d: dispatch of %d reloads %v, want %v", i, s.f, rl, s.reload)
		}
		if !slices.Equal(cpu.resident, s.resident) {
			t.Errorf("step %d: resident %v, want %v", i, cpu.resident, s.resident)
		}
		want := 0.0
		for _, r := range s.resident {
			want += r.bytes
		}
		if cpu.total != want {
			t.Errorf("step %d: total %v, want %v", i, cpu.total, want)
		}
	}
	if cpu.total != float64(cpu.cfg.CacheSize) || cpu.CacheMisses != 5 || cpu.ReloadTime != 13926 {
		t.Errorf("total %v, misses %d, reload %v; want a full cache, 5 and 13.926ms", cpu.total, cpu.CacheMisses, cpu.ReloadTime)
	}
}
