// Command bench is the repository's wall-clock benchmark: four named
// workloads over the tuning and serving pipelines, measured end to end
// with tracing off and, in a separate traced run, layer by layer from
// the outside. README.md in this directory describes the workloads and
// every metric; ../BENCHMARK.json declares them with their bounds.
//
//	go run -C bench .                          # all workloads, measured + traced
//	go run -C bench . -workload serve_miss -trace 0 -seed 7
//	go run -C bench . -repeat 5                # run-to-run spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricSpec declares one metric: its name and unit here, its direction
// and bound in BENCHMARK.json (a test keeps the two in step).
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system waits for or pays, and what a
// later change is gated on; every workload reports every one of them in
// the measured run. The measured run's wall-clock numbers (ungated, see
// README.md "Bounds") are not among them: they could not hold a 0.10
// bound on the machine this was written on, so they are printed with
// every run and reported per layer as bench.op_us_p50 / bench.ops_per_s.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KB"},
}

// ungated is the measured run's wall-clock numbers, kept in
// outcome.Info: -repeat shows their spread beside the gated metrics'.
var ungated = []string{"op_us_p50", "ops_per_s"}

// metrics is one run's values by name.
type metrics map[string]float64

// config is what every workload run receives.
type config struct {
	seed    uint64
	seconds float64 // nominal length of the measured run: it sizes the op lists
	tiny    bool    // -scale tiny: small jobs and short op lists
	clients int     // client goroutines for the multi-client workloads
	scratch string  // directory for stores; removed at exit
	outDir  string
}

// freshDir makes a new, empty directory under the scratch root. Every
// system a run builds gets its own: a store or a cluster left behind by
// an earlier set-up (or an earlier set of -repeat) must never be reopened.
func (c config) freshDir(name string) (string, error) {
	return os.MkdirTemp(c.scratch, name+"-")
}

// ops is the length of one client's op list: perSecond ops for each
// nominal second of the run. The rates are what the box this was written
// on sustains, so a run takes about -seconds there; the list itself is
// fixed — a faster build finishes it sooner, it is not given more.
func (c config) ops(perSecond float64, tinyOps int) int {
	if c.tiny {
		return tinyOps
	}
	return max(2, int(math.Round(perSecond*c.seconds)))
}

// outcome is the result of one workload in one mode.
type outcome struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"` // first few, for the reader
	Metrics   metrics              `json:"metrics"`
	Info      map[string]any       `json:"info,omitempty"`   // op counts, sample sizes, warm-up sizes
	Phases    map[string]float64   `json:"phases,omitempty"` // wall seconds of each phase
	Trace     map[string]nameTotal `json:"trace,omitempty"`  // self time by span name (traced run)
}

// fail records one failed or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 8 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// workloadDef names a workload and the reason it exists.
type workloadDef struct {
	name    string
	why     string
	measure func(config) (*outcome, error)
	trace   func(config) (*outcome, error)
}

var workloads = []workloadDef{
	{"tune_ic", "default IC job: tensor/nn/trial do nearly all the work, store/WAL/obs/cluster almost none", measureTuneIC, traceTuneIC},
	{"tune_cluster", "NLP jobs on a 2-shard cluster, both cores busy, checkpoints through WAL + follower shipping with tracer and flight recorder on", measureTuneCluster, traceTuneCluster},
	{"serve_miss", "every request is a fresh signature: 24-trial search plus a durable Put, nn/tensor idle", measureServeMiss, traceServeMiss},
	{"serve_mixed", "199 in 200 requests hit the historical store while misses keep writing to it", measureServeMixed, traceServeMixed},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		only     = fs.String("workload", "", "run one workload (default: all four)")
		seed     = fs.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = fs.Float64("seconds", 20, "nominal run length; sizes the fixed op lists (20 = the declared run: 10 IC jobs, 2x6 NLP jobs, 2x15000 misses, 2x1000000 mixed requests)")
		trace    = fs.String("trace", "", "0 = measured run only, 1 = traced run only (default: both)")
		scale    = fs.String("scale", "", "\"tiny\" = 2 jobs / 2000 requests, for smoke tests; not for reporting")
		repeat   = fs.Int("repeat", 1, "run N measured sets of the same inputs and report each metric's run-to-run spread against its bound")
		outDir   = fs.String("out", "out", "directory for result.json, traces and scratch stores")
		goldenUp = fs.Bool("write-golden", false, "regenerate golden.json from this build and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale != "" && *scale != "tiny" {
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q\n", *scale)
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintf(os.Stderr, "bench: -seconds and -repeat must be positive\n")
		return 2
	}
	selected := workloads
	if *only != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*outDir, "scratch-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		tiny:    *scale == "tiny",
		clients: min(runtime.NumCPU(), 2),
		scratch: scratch,
		outDir:  *outDir,
	}
	if *goldenUp {
		if err := writeGolden(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *repeat > 1 {
		return runRepeat(cfg, selected, *repeat)
	}

	res := resultFile{Header: newHeader(cfg)}
	code := 0
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			out, err := runOne(cfg, w, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			res.Runs = append(res.Runs, out)
			if out.Failed > 0 {
				code = 1
			}
			printOutcome(out)
		}
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// runOne runs one workload in one mode and checks that it reported
// exactly the declared metrics.
func runOne(cfg config, w workloadDef, traced bool) (*outcome, error) {
	fn, want := w.measure, endToEnd
	if traced {
		fn, want = w.trace, perLayer
	}
	t := time.Now()
	out, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	out.Workload, out.Traced = w.name, traced
	out.Phases["total"] = time.Since(t).Seconds()
	if len(out.Metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, declared %d", len(out.Metrics), len(want))
	}
	for _, m := range want {
		if _, ok := out.Metrics[m.name]; !ok {
			return nil, fmt.Errorf("metric %s not reported", m.name)
		}
	}
	return out, nil
}

// printOutcome prints every metric by name with its unit, then the one
// JSON line the benchmark contract asks for (always the last line of a
// single-workload, single-mode invocation).
func printOutcome(o *outcome) {
	specs, mode := endToEnd, "measured"
	if o.Traced {
		specs, mode = perLayer, "traced"
	}
	fmt.Printf("== %s (%s): %d ops attempted, %d failed\n", o.Workload, mode, o.Attempted, o.Failed)
	for _, w := range workloads {
		if w.name == o.Workload {
			fmt.Printf("   why: %s\n", w.why)
		}
	}
	for _, f := range o.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	keys := make([]string, 0, len(o.Info))
	for k := range o.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   %-34s %v\n", k, o.Info[k])
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.Failed == 0, o.Attempted, o.Failed, map[string]mv{}}
	for _, m := range specs {
		v := o.Metrics[m.name]
		fmt.Printf("%-34s %16.6g %s\n", m.name, v, m.unit)
		line.Metrics[m.name] = mv{v, m.unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Println(string(b))
}

// header records what a later reader needs to trust a number.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	ScratchFS  string  `json:"scratchFs"`
	Started    string  `json:"started"`
}

type resultFile struct {
	Header header     `json:"header"`
	Runs   []*outcome `json:"runs"`
}

func newHeader(cfg config) header {
	h := header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    cfg.clients,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      "full",
		ScratchFS:  fsType(cfg.scratch),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if cfg.tiny {
		h.Scale = "tiny"
	}
	// A benchmark checkout need not be a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// fsType names the filesystem holding dir, from /proc/mounts (the
// longest mount point that is a prefix of dir); "unknown" elsewhere.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmarkDecl is the part of ../BENCHMARK.json the harness reads: the
// bound each end-to-end metric may worsen by.
type benchmarkDecl struct {
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

// loadDecl reads the declaration from the repository root; like
// golden.json, it is found relative to the bench directory the program
// runs in (go run -C bench).
func loadDecl() (benchmarkDecl, error) {
	var d benchmarkDecl
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// runRepeat runs n measured sets of the same inputs (same seed, same op
// lists) back to back, so that what differs between sets is the machine
// and nothing else, and prints, per workload and metric, min / median /
// max and the quartile spread. It exits 2 when the spread of a gated
// metric exceeds its bound. setup_s is shown but, as in the acceptance
// rule, not gated on spread; the ungated wall-clock numbers are shown
// against the 0.10 they would have to hold to be promoted.
func runRepeat(cfg config, selected []workloadDef, n int) int {
	decl, err := loadDecl()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bound := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bound[m.Name] = m.Bound
	}
	names := slices.Clone(ungated)
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	values := map[string]map[string][]float64{} // workload -> metric -> per-set value
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range selected {
			out, err := runOne(cfg, w, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if out.Failed > 0 {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, k := range names {
				v, gated := out.Metrics[k]
				if !gated {
					v = out.Info[k].(float64)
				}
				values[w.name][k] = append(values[w.name][k], v)
			}
			fmt.Printf("set %d/%d %s: %d ops, %d failed, %.1fs, op_us_p50 %.6g\n", i+1, n, w.name,
				out.Attempted, out.Failed, out.Phases["total"], out.Info["op_us_p50"])
		}
	}
	fmt.Printf("\n%-13s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range selected {
		for _, k := range names {
			xs := slices.Clone(values[w.name][k])
			slices.Sort(xs)
			sp, b, gated := spread(xs), 0.10, false
			if v, ok := bound[k]; ok {
				b, gated = v, k != "setup_s"
			}
			note := ""
			switch {
			case sp > b && gated:
				note = "  EXCEEDS"
				if code == 0 {
					code = 2
				}
			case sp > b:
				note = "  exceeds (not gated)"
			}
			fmt.Printf("%-13s %-16s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n", w.name, k, xs[0], quantile(xs, 0.5), xs[len(xs)-1], sp, b, note)
		}
	}
	return code
}
