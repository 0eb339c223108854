// Package bad leaks map-iteration order four different ways.
package bad

import "fmt"

// Announce collects the moved targets in a map and announces them in its
// iteration order: the bug seeded into the simulated server's scan
// (EXPERIMENTS.md SIMPL-6). A seed's event stream then differs from run
// to run, and the same-seed goldens notice in only some of their runs.
func Announce(moved map[int][2]int, announce func(app, target, prev int)) {
	var order []int
	for app := range moved {
		order = append(order, app) // want "append to order inside map iteration"
	}
	for _, app := range order {
		announce(app, moved[app][0], moved[app][1])
	}
}

func Emit(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "call to fmt.Printf inside map iteration"
	}
}

func Concat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want "string concatenation inside map iteration"
	}
	return s
}

func First(m map[int]string) string {
	for _, v := range m {
		return v // want "value return inside map iteration"
	}
	return ""
}
