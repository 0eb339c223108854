// Package procctl implements dynamic process control for multiprogrammed
// shared-memory multiprocessors, after Tucker & Gupta (SOSP 1989): when
// several parallel applications share a machine, each should keep only as
// many runnable workers as its fair share of the processors, suspending
// and resuming workers at task boundaries to track a target computed by a
// centralized coordinator.
//
// The package has two halves:
//
//   - A real runtime for Go programs: an adaptive worker Pool whose
//     workers park at safe points (between tasks), and a Coordinator that
//     divides processor capacity fairly among pools — in-process, or
//     across processes via the procctld daemon's socket protocol.
//
//   - A deterministic simulator of the paper's hardware and experiments
//     (internal/sim, internal/kernel, internal/experiments), driven by
//     cmd/procctl-sim, which regenerates every figure of the paper's
//     evaluation.
//
// Quick start:
//
//	coord := procctl.NewCoordinator(0) // manage GOMAXPROCS processors
//	p := procctl.NewPool(procctl.PoolConfig{Name: "render", Workers: 16})
//	coord.RegisterWeighted(p, 1)
//	p.Submit(func() { ... })
package procctl

import (
	"net"

	"procctl/internal/core"
	"procctl/internal/runtime/coordinator"
	"procctl/internal/runtime/pool"
)

// Pool is an adaptive worker pool; see internal/runtime/pool.
type Pool = pool.Pool

// PoolConfig configures NewPool.
type PoolConfig = pool.Config

// Task is one unit of work submitted to a Pool.
type Task = pool.Task

// PoolStats is a snapshot of a Pool's counters.
type PoolStats = pool.Stats

// ErrClosed is returned by Pool.Submit after Close.
var ErrClosed = pool.ErrClosed

// NewPool creates and starts an adaptive worker pool.
func NewPool(cfg PoolConfig) *Pool { return pool.New(cfg) }

// Coordinator divides processor capacity among registered pools.
type Coordinator = coordinator.Coordinator

// Member is anything a Coordinator can control; *Pool implements it.
type Member = coordinator.Member

// NewCoordinator creates a coordinator managing capacity processors
// (non-positive selects GOMAXPROCS).
func NewCoordinator(capacity int) *Coordinator { return coordinator.New(capacity) }

// Client talks to a procctld daemon.
type Client = coordinator.Client

// Dial connects to a procctld daemon (e.g. "unix",
// "/tmp/procctld.sock").
func Dial(network, addr string) (*Client, error) { return coordinator.Dial(network, addr) }

// DriveOptions tunes Client.DriveWith, the poll loop that applies the
// daemon's targets to a Pool.
type DriveOptions = coordinator.DriveOptions

// Server bridges a net.Listener to a Coordinator; cmd/procctld wraps it.
type Server = coordinator.Server

// NewServer creates a daemon server over an existing listener.
func NewServer(coord *Coordinator, ln net.Listener) *Server {
	return coordinator.NewServer(coord, ln)
}

// Demand describes one application's processor claim for Allocate.
type Demand = core.Demand

// Allocate divides capacity fairly among demands — the paper's central
// allocation rule (equal weighted shares, capped by each application's
// process count, at least one each).
func Allocate(capacity int, demands []Demand) []int {
	return core.Allocate(capacity, demands)
}

// Available returns the processors left for controllable applications
// after uncontrollable load is subtracted.
func Available(numCPU, uncontrolled int) int {
	return core.Available(numCPU, uncontrolled)
}
