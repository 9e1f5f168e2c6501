// Command tracetool consumes the pipeline's observability artefacts:
// it analyses JSONL span traces ("where did the time go?"), diffs two
// same-workload traces span-class by span-class, converts a trace into
// the Chrome trace-event format for Perfetto, checks captured pprof
// profiles for expected label strings, scrubs durable-store files for
// corruption, shows and diffs incident dossiers, and runs the seeded
// chaos fuzzer.
//
// Usage:
//
//	tracetool analyze [-json] trace.jsonl
//	tracetool diff [-threshold 0.10] a.jsonl b.jsonl
//	tracetool chrome trace.jsonl trace.json
//	tracetool profile check -want tenant,shard,rung cpu.pprof
//	tracetool store verify [-json] store.json
//	tracetool incident show [-json] [-events] dossier.json
//	tracetool incident diff a.json b.json
//	tracetool fuzz run [-mode single|cluster] [-seed N] [-n N] [-plant-double-charge] [-out dir]
//	tracetool fuzz replay [-plant-double-charge] repro.json
//	tracetool fuzz shrink [-plant-double-charge] [-out min.json] repro.json
//	tracetool fuzz gen [-mode single|cluster] [-seed N] [-n N] -out dir
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 gate failure (flagged
// diff deltas, missing profile labels, store corruption, a dossier
// digest mismatch, two dossiers that should match but differ, or a
// chaos-fuzz invariant violation).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"edgetune/internal/obs/analyze"
	"edgetune/internal/obs/prof"
	"edgetune/internal/store"
)

// errGate marks a gate failure (exit 2): the tool worked, the input
// failed the check.
var errGate = errors.New("gate failed")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errGate):
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: tracetool <analyze|diff|chrome|profile|store|incident|fuzz> [flags] args")
	}
	switch args[0] {
	case "analyze":
		return runAnalyze(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	case "chrome":
		return runChrome(args[1:])
	case "profile":
		return runProfile(args[1:], out)
	case "store":
		return runStore(args[1:], out)
	case "incident":
		return runIncident(args[1:], out)
	case "fuzz":
		return runFuzz(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want analyze, diff, chrome, profile, store, incident, or fuzz)", args[0])
	}
}

// runProfile dispatches the pprof-profile subcommands.
func runProfile(args []string, out io.Writer) error {
	if len(args) == 0 || args[0] != "check" {
		return errors.New("usage: tracetool profile check -want k1,k2,... profile.pprof")
	}
	return runProfileCheck(args[1:], out)
}

// runProfileCheck verifies that a captured pprof profile's string
// table contains every wanted string — the label keys (and values)
// the profiling plane is expected to have attributed samples with.
// Exit 2 when any are missing: either labels were not applied, or no
// labelled work was sampled.
func runProfileCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracetool profile check", flag.ContinueOnError)
	want := fs.String("want", "", "comma-separated strings that must appear in the profile's string table (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *want == "" || fs.NArg() != 1 {
		return errors.New("usage: tracetool profile check -want k1,k2,... profile.pprof")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	table, err := prof.ProfileStrings(data)
	if err != nil {
		return err
	}
	var wanted []string
	for _, w := range strings.Split(*want, ",") {
		if w = strings.TrimSpace(w); w != "" {
			wanted = append(wanted, w)
		}
	}
	missing := prof.MissingStrings(table, wanted)
	for _, w := range wanted {
		status := "ok  "
		for _, m := range missing {
			if m == w {
				status = "MISS"
			}
		}
		fmt.Fprintf(out, "%s %s\n", status, w)
	}
	fmt.Fprintf(out, "profile: %d strings in table, %d/%d wanted present\n",
		len(table), len(wanted)-len(missing), len(wanted))
	if len(missing) > 0 {
		return fmt.Errorf("%w: profile missing %d label strings: %s",
			errGate, len(missing), strings.Join(missing, ", "))
	}
	return nil
}

// runStore dispatches the store maintenance subcommands.
func runStore(args []string, out io.Writer) error {
	if len(args) == 0 || args[0] != "verify" {
		return errors.New("usage: tracetool store verify [-json] store.json")
	}
	return runStoreVerify(args[1:], out)
}

// runStoreVerify scrubs a durable store's on-disk files read-only —
// recovery without its repairs: snapshot generations, WAL framing and
// checksums, torn tails. Exit 2 when recovery would salvage anything —
// the same gate semantics as diff.
func runStoreVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracetool store verify", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the scrub report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: tracetool store verify [-json] store.json")
	}
	rep, err := store.Scrub(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		snap := "loads " + rep.SnapshotSource
		if rep.SnapshotQuarantined {
			snap += ", a generation CORRUPT: " + rep.SnapshotError
		}
		fmt.Fprintf(out, "snapshot %-40s %s\n", rep.SnapshotPath, snap)
		fmt.Fprintf(out, "wal      %-40s %d records replayed, %d torn bytes\n",
			rep.WALPath, rep.RecordsReplayed, rep.TruncatedBytes)
		fmt.Fprintf(out, "state    %d entries, %d checkpoints, %d records quarantined\n",
			rep.Entries, rep.Checkpoints, rep.RecordsQuarantined)
	}
	if !rep.Clean {
		return fmt.Errorf("%w: store has corruption (snapshot quarantined=%v, %d quarantined records, %d torn bytes)",
			errGate, rep.SnapshotQuarantined, rep.RecordsQuarantined, rep.TruncatedBytes)
	}
	fmt.Fprintln(out, "clean")
	return nil
}

func runAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracetool analyze", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: tracetool analyze [-json] trace.jsonl")
	}
	tr, err := analyze.ParseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := analyze.Analyze(tr)
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return rep.WriteText(out)
}

func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracetool diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.10, "relative span-class duration change that flags a delta")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: tracetool diff [-threshold 0.10] a.jsonl b.jsonl")
	}
	ta, err := analyze.ParseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tb, err := analyze.ParseFile(fs.Arg(1))
	if err != nil {
		return err
	}
	d := analyze.DiffReports(analyze.Analyze(ta), analyze.Analyze(tb), *threshold)
	if err := d.WriteText(out); err != nil {
		return err
	}
	if d.Flagged > 0 {
		return fmt.Errorf("%w: %d span classes moved beyond %.0f%%", errGate, d.Flagged, *threshold*100)
	}
	return nil
}

// runChrome writes the Chrome trace-event view of a JSONL trace.
func runChrome(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: tracetool chrome trace.jsonl trace.json")
	}
	in, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer in.Close()
	var out bytes.Buffer
	if err := analyze.Chrome(&out, in); err != nil {
		return err
	}
	return os.WriteFile(args[1], out.Bytes(), 0o644)
}
