// Simulation: reproduce a panel of the paper's Figure 3 directly from
// the library, without the procctl-sim CLI.
//
// The program runs the gauss application on the simulated 16-CPU
// Multimax with 1..24 processes, with the original and the
// process-controlled threads package, and prints the speed-up curves.
// Past 16 processes the original collapses while the controlled version
// stays flat — the paper's headline result.
package main

import (
	"fmt"

	"procctl/internal/apps"
	"procctl/internal/experiments"
)

func main() {
	o := experiments.Options{Seed: 42, Seeds: 1}

	gauss := apps.PaperGauss()
	t1 := experiments.Solo(o, gauss, 1, false)
	fmt.Printf("gauss: %.1fs sequential on the simulated Multimax\n\n", t1.Seconds())
	fmt.Printf("%6s  %10s  %10s\n", "procs", "original", "controlled")

	for _, procs := range []int{1, 2, 4, 8, 12, 16, 20, 24} {
		off := experiments.Solo(o, gauss, procs, false)
		on := experiments.Solo(o, gauss, procs, true)
		fmt.Printf("%6d  %9.2fx  %9.2fx\n", procs,
			t1.Seconds()/off.Seconds(), t1.Seconds()/on.Seconds())
	}

	fmt.Println("\npast 16 processes the original threads package collapses;")
	fmt.Println("process control holds the 16-process speed-up (paper, Figure 3)")
}
