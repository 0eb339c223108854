// Package core is the paper's central contribution as pure, reusable
// code, in two halves.
//
// The policy (this file) decides how many runnable processes each
// parallel application should have so that the system-wide total matches
// the number of available processors. The rules come from Section 5 of
// the paper:
//
//   - processors consumed by uncontrollable processes are subtracted
//     from the machine first;
//   - the remainder is divided fairly among the controllable
//     applications (weighted equal shares);
//   - an application is never assigned more processors than it has
//     processes (the cap);
//   - every application keeps at least one runnable process, even on an
//     overloaded machine, to avoid starvation.
//
// The registry (registry.go) is the state the server keeps around that
// policy — who is registered, in what order, seen when, told what — as a
// state machine with no clock, lock or I/O of its own: Register, Remove,
// Expire, Reseat, SetTarget, and Decide, which runs the policy over the
// members in registration order and reports the targets that moved.
//
// Who calls what: the simulated central server (internal/ctrl) is a
// Registry keyed by application id plus a kernel scan; journal recovery
// (internal/journal) folds records into a Registry keyed by name, and
// the replay audit (ctrl.DiffJournal) folds the same records and
// re-derives every journaled decision with Decide. The live coordinator
// (internal/runtime/coordinator) keeps its own sharded, locked registry
// and calls the policy (AllocateInto) directly; a model test holds it to
// the Registry step by step. So the policy is defined once, and the
// registry semantics once for everything that runs on virtual time or
// on records.
package core

import "slices"

// Demand describes one controllable application's claim on processors.
type Demand struct {
	// Max is the number of processes the application has; its
	// allocation never exceeds Max (the server "makes sure that the
	// number of runnable processes it thinks a given application should
	// have does not exceed the total number of processes the
	// application has").
	Max int
	// Weight scales the application's fair share. Zero means 1. All
	// applications in the paper have equal priority.
	Weight int
}

func (d Demand) weight() int {
	if d.Weight <= 0 {
		return 1
	}
	return d.Weight
}

// Available returns how many processors remain for controllable
// applications on a machine with numCPU processors of which uncontrolled
// runnable processes occupy `uncontrolled`. It never returns less than
// zero.
func Available(numCPU, uncontrolled int) int {
	if uncontrolled >= numCPU {
		return 0
	}
	return numCPU - uncontrolled
}

// Allocate divides capacity processors among the demands and returns the
// per-application targets, parallel to demands.
//
// Guarantees:
//   - every application with Max > 0 gets at least 1 (starvation floor),
//     even when that makes the total exceed capacity;
//   - no application exceeds its Max;
//   - above the floor, shares grow in weighted round-robin order, so two
//     equal-weight applications' targets never differ by more than one
//     unless a cap binds;
//   - the sum of targets never exceeds max(capacity, number of demands
//     with Max > 0);
//   - the result is deterministic: ties resolve in input order.
func Allocate(capacity int, demands []Demand) []int {
	return AllocateInto(nil, capacity, demands)
}

// AllocateInto is Allocate writing its result into out's storage, grown
// as append would when it is too small, for a caller that decides again
// and again over a fleet of much the same size.
func AllocateInto(out []int, capacity int, demands []Demand) []int {
	n := len(demands)
	if n == 0 {
		return nil
	}
	out = slices.Grow(out[:0], n)[:n]
	clear(out)
	if capacity < 0 {
		capacity = 0
	}

	// Starvation floor.
	remaining := capacity
	for i, d := range demands {
		if d.Max > 0 {
			out[i] = 1
			remaining--
		}
	}
	if remaining <= 0 {
		return out
	}

	// Weighted round-robin above the floor, capped by Max.
	for remaining > 0 {
		progress := false
		for i, d := range demands {
			if remaining == 0 {
				break
			}
			grant := d.weight()
			if grant > remaining {
				grant = remaining
			}
			if room := d.Max - out[i]; room > 0 {
				if grant > room {
					grant = room
				}
				out[i] += grant
				remaining -= grant
				progress = true
			}
		}
		if !progress {
			break // all demands saturated; leave the rest unallocated
		}
	}
	return out
}

// Sum returns the total of an allocation.
func Sum(alloc []int) int {
	s := 0
	for _, a := range alloc {
		s += a
	}
	return s
}
