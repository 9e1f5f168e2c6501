// Command benchtab regenerates every table and figure of the paper's
// evaluation as text tables (the same data the root benchmarks report).
//
// Usage:
//
//	benchtab                   # all experiments, paper order
//	benchtab -only 13          # a single figure/table by number
//	benchtab -list             # list available experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"edgetune/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	var (
		only = fs.String("only", "", "run only experiments whose ID contains one of these comma-separated strings (e.g. \"13\", \"Table 1\", or \"Table 2,Benchmark\")")
		list = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var filters []string
	if *only != "" {
		filters = strings.Split(*only, ",")
	}
	matches := func(id string) bool {
		if len(filters) == 0 {
			return true
		}
		for _, f := range filters {
			if strings.Contains(id, strings.TrimSpace(f)) {
				return true
			}
		}
		return false
	}

	ran := 0
	for _, exp := range experiments.All() {
		if !matches(exp.ID) {
			continue
		}
		ran++
		if *list {
			fmt.Fprintf(out, "%s\n", exp.ID)
			continue
		}
		start := time.Now()
		tab, err := exp.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s(regenerated in %.1fs)\n\n", tab, time.Since(start).Seconds())
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches %q", *only)
	}
	return nil
}
