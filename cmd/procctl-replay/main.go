// Command procctl-replay works with a procctld journal directory
// offline: fsck checks (and with -repair fixes) torn or corrupt tails,
// dump prints the decoded record stream, state replays the journal and
// prints the registry it reconstructs, and diff feeds the captured
// stream through the deterministic simulated server (internal/ctrl)
// and compares every target decision the live daemon journaled against
// what the shared policy computes from the same inputs — the
// record/replay harness that proves the daemon's decisions are exactly
// the policy's.
//
// Usage:
//
//	procctl-replay [-dir /var/lib/procctld/journal] fsck [-repair]
//	procctl-replay [-dir DIR] dump
//	procctl-replay [-dir DIR] state
//	procctl-replay [-dir DIR] diff [-capacity N] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"procctl/internal/ctrl"
	"procctl/internal/journal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("procctl-replay: ")
	dir := flag.String("dir", "", "journal directory (as given to procctld -journal-dir)")
	flag.Usage = usage
	flag.Parse()
	if *dir == "" || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	args := flag.Args()[1:]
	var err error
	switch cmd := flag.Arg(0); cmd {
	case "fsck":
		err = runFsck(os.Stdout, *dir, args)
	case "dump":
		err = runDump(os.Stdout, *dir)
	case "state":
		err = runState(os.Stdout, *dir)
	case "diff":
		err = runDiff(os.Stdout, *dir, args)
	default:
		log.Printf("unknown command %q", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: procctl-replay -dir DIR COMMAND [ARGS]

Commands:
  fsck [-repair]        verify the journal; -repair truncates torn tails
  dump                  print every decodable record, oldest first
  state                 replay the journal and print the recovered registry
  diff [-capacity N] [-v]  replay through the registry state machine and diff decisions
`)
}

// runFsck reports what recovery would keep and, with -repair, applies
// the truncations so the next daemon boot starts clean.
func runFsck(w io.Writer, dir string, args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "apply truncations and remove unrecoverable files")
	fs.Parse(args)

	res, err := journal.Recover(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d records", res.Replayed)
	if res.SnapshotSeq > 0 {
		fmt.Fprintf(w, " on snapshot seq %d", res.SnapshotSeq)
	}
	fmt.Fprintf(w, "; next seq %d; %d members\n", res.NextSeq, len(res.State.Members))
	for _, note := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
	if !res.Dirty() {
		fmt.Fprintln(w, "clean")
		return nil
	}
	fmt.Fprintf(w, "dirty: %d bytes past the valid prefix\n", res.TruncatedBytes)
	if !*repair {
		fmt.Fprintln(w, "run with -repair to truncate")
		return fmt.Errorf("journal is dirty")
	}
	if err := journal.Repair(dir, res); err != nil {
		return err
	}
	fmt.Fprintln(w, "repaired")
	return nil
}

// runDump prints the decoded record stream the way the replayer will
// see it: base snapshot (if any) then every contiguous record.
func runDump(w io.Writer, dir string) error {
	base, recs, err := journal.ReadAll(dir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if base.LastSeq > 0 {
		fmt.Fprintf(tw, "snapshot\tseq %d\t%d members\tcapacity %d\texternal %d\n",
			base.LastSeq, len(base.Members), base.Capacity, base.External)
	}
	for _, r := range recs {
		at := time.UnixMicro(r.At).UTC().Format("15:04:05.000000")
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\n", r.Seq, at, r.Kind, r.App, r.A, r.B)
	}
	return tw.Flush()
}

// runState replays the journal and prints the registry a restarting
// daemon would recover.
func runState(w io.Writer, dir string) error {
	res, err := journal.Recover(dir)
	if err != nil {
		return err
	}
	st := res.State
	fmt.Fprintf(w, "seq %d  capacity %d  external %d  rebalances %d\n",
		st.LastSeq, st.Capacity, st.External, st.Rebalances)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "APP\tPROCS\tWEIGHT\tTARGET")
	for _, m := range st.Members {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", m.Name, m.Procs, m.Weight, m.Target)
	}
	return tw.Flush()
}

// runDiff is the record/replay harness: every target decision in the
// journal must be reproduced by core.Registry from the same inputs.
func runDiff(w io.Writer, dir string, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	capacity := fs.Int("capacity", runtime.NumCPU(), "divisible total before the journal's first setcapacity record")
	verbose := fs.Bool("v", false, "print every mismatch, not just the first few")
	fs.Parse(args)

	base, recs, err := journal.ReadAll(dir)
	if err != nil {
		return err
	}
	d := ctrl.DiffJournal(base, recs, *capacity)
	fmt.Fprintf(w, "replayed %d records, %d rebalances, %d target decisions\n",
		d.Records, d.Scans, d.Decisions)
	if d.OK() {
		fmt.Fprintln(w, "identical: every journaled decision matches the policy replay")
		return nil
	}
	limit := 10
	if *verbose || len(d.Mismatches) < limit {
		limit = len(d.Mismatches)
	}
	for _, m := range d.Mismatches[:limit] {
		fmt.Fprintf(w, "  seq %d: %s\n", m.Seq, m.What)
	}
	if limit < len(d.Mismatches) {
		fmt.Fprintf(w, "  ... and %d more (use -v)\n", len(d.Mismatches)-limit)
	}
	return fmt.Errorf("%d mismatches", len(d.Mismatches))
}
