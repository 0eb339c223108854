package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The A/A self-check measures the same tree against itself the way the
// benchmark's judge does: a set is `runs` fresh processes per workload,
// each on its own seed; for every end-to-end metric the spread of a set
// is the distance between the first and third quartile as a share of
// the median, and two sets are compared median to median. Both must
// stay inside the metric's bound in BENCHMARK.json. It is the tool the
// bounds were set with (README.md, "How the bounds were derived").

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// exactCounts are the per-layer metrics that must not differ at all
// between two runs of one seed.
var exactCounts = []string{
	"sim.events_fired", "sim.events_canceled",
	"kernel.context_switches", "kernel.dispatches", "kernel.preemptions_in_crit", "kernel.spin_virtual_s",
	"machine.reload_virtual_s", "machine.cache_miss_ratio",
	"threads.tasks_run", "threads.suspensions", "ctrl.scans", "ctrl.polls",
	"experiments.fig4_ctl_gain",
}

// runChild runs this binary once and returns the result object it
// printed as its last line.
func runChild(workload string, seed uint64, seconds float64, traced bool) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var o outcome
	if err := json.Unmarshal(last, &o); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result object: %w", workload, seed, err)
	}
	if !o.Correct {
		return nil, fmt.Errorf("%s seed %d: outputs were not correct (%d of %d failed)", workload, seed, o.Failed, o.Attempted)
	}
	return &o, nil
}

// selfCheck runs the sets and returns the process exit code.
func selfCheck(selected []*workload, sets, runs int, seed uint64, seconds float64) int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -aa reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	if runs < 2 {
		runs = 2
	}
	bad := 0
	for _, w := range selected {
		// medians[set][metric], exact[set][metric]
		medians := make([]map[string]float64, sets)
		exact := make([]map[string]float64, sets)
		fmt.Printf("== %s: %d sets of %d runs, seeds %d..%d, %g s each\n", w.name, sets, runs, seed, seed+uint64(runs)-1, seconds)
		for s := 0; s < sets; s++ {
			values := make(map[string][]float64)
			for r := 0; r < runs; r++ {
				o, err := runChild(w.name, seed+uint64(r), seconds, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				for name, m := range o.Metrics {
					values[name] = append(values[name], m.Value)
				}
			}
			medians[s] = make(map[string]float64)
			for _, m := range c.EndToEnd {
				q1, q2, q3 := quartiles(values[m.Name])
				spread := (q3 - q1) / q2
				medians[s][m.Name] = q2
				verdict := "ok"
				// The judge exempts set-up time from the spread rule
				// (not from the median-to-median rule below).
				if spread > m.Bound && m.Name != "setup_s" {
					verdict = "SPREAD ABOVE BOUND"
					bad++
				} else if spread > m.Bound/3 {
					verdict = "above a third of the bound"
				}
				fmt.Printf("  set %d %-16s median %14.4f  q1 %14.4f  q3 %14.4f %-6s spread %6.2f%%  bound %5.1f%%  %s\n",
					s+1, m.Name, q2, q1, q3, m.Unit, 100*spread, 100*m.Bound, verdict)
			}
			t, err := runChild(w.name, seed, seconds, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			exact[s] = make(map[string]float64)
			for _, name := range exactCounts {
				exact[s][name] = t.Metrics[name].Value
			}
		}
		for s := 1; s < sets; s++ {
			for _, m := range c.EndToEnd {
				first, later := medians[0][m.Name], medians[s][m.Name]
				worse := (later - first) / first
				if m.Better == "higher" {
					worse = (first - later) / first
				}
				verdict := "ok"
				if worse > m.Bound {
					verdict = "MEDIAN WORSE THAN BOUND"
					bad++
				}
				fmt.Printf("  set %d vs 1 %-16s %14.4f -> %14.4f  worse by %6.2f%%  bound %5.1f%%  %s\n",
					s+1, m.Name, first, later, 100*worse, 100*m.Bound, verdict)
			}
			var moved []string
			for _, name := range exactCounts {
				if exact[s][name] != exact[0][name] {
					moved = append(moved, name)
				}
			}
			if len(moved) > 0 {
				fmt.Printf("  set %d vs 1 exact counts DIFFER: %s\n", s+1, strings.Join(moved, ", "))
				bad++
			} else {
				fmt.Printf("  set %d vs 1 exact counts identical\n", s+1)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("FAIL: %d checks outside their bounds\n", bad)
		return 1
	}
	fmt.Println("PASS: every end-to-end metric within its bound on every workload")
	return 0
}
