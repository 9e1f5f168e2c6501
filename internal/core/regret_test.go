package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

var updateRegret = flag.Bool("update-regret", false, "rewrite testdata/search_regret.golden")

// regretShapes are the request shapes the regret is measured on: the
// paper-scale footprints of five architectures the four workloads tune.
func regretShapes(t *testing.T) []InferRequest {
	t.Helper()
	var reqs []InferRequest
	for _, s := range []struct {
		id string
		v  float64
	}{{"IC", 18}, {"IC", 50}, {"SR", 64}, {"NLP", 8}, {"OD", 0.3}} {
		w := workload.MustNew(s.id, 1)
		cfg := search.Config{w.ModelParam.Name: s.v}
		flops, params, err := w.PaperCost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, InferRequest{Signature: w.Signature(cfg), FLOPsPerSample: flops, Params: params})
	}
	return reqs
}

// gridBest is the best score the device model offers a request on a
// dense grid: every batch size 1–100, every core count and 33
// frequencies from the device's lowest to its highest.
func gridBest(t *testing.T, dev device.Device, obj Objective, req InferRequest) float64 {
	t.Helper()
	p := dev.Profile
	best := math.Inf(1)
	for batch := 1; batch <= 100; batch++ {
		for cores := 1; cores <= p.MaxCores; cores++ {
			for f := 0; f <= 32; f++ {
				r, err := dev.Estimate(perfmodel.InferSpec{
					FLOPsPerSample: req.FLOPsPerSample, Params: req.Params,
					BatchSize: batch, Cores: cores,
					FreqGHz: p.MinFreqGHz + (p.MaxFreqGHz-p.MinFreqGHz)*float64(f)/32,
				})
				if err != nil {
					t.Fatal(err)
				}
				best = min(best, obj.InferScore(r))
			}
		}
	}
	return best
}

// regretSearcher runs tuneCore, the search a cache miss runs, on one
// worker's scratch, without the queue, store or reply around it.
func regretSearcher(t *testing.T, dev device.Device, metric Metric) (*InferenceServer, *scratch) {
	t.Helper()
	space, err := workload.MustNew("IC", 1).InferenceSpace(dev)
	if err != nil {
		t.Fatal(err)
	}
	opts := InferenceServerOptions{Device: dev, Space: space, Metric: metric, Store: store.New()}
	if err := opts.normalise(); err != nil {
		t.Fatal(err)
	}
	s := &InferenceServer{opts: opts, gate: newDeviceGate(dev, counters.NewResilienceOn(nil), nil), hard: context.Background()}
	sc := s.newScratch()
	sc.ctx, sc.deadline = context.Background(), time.Now().Add(time.Hour)
	return s, sc
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}

// TestSearchRegret measures what the §3.4 search buys: for each device
// and metric, the relative regret of its 24-trial result against the
// best point of a dense grid on the same device model, (search − grid) /
// grid, over 5 request shapes × 40 server seeds, on three seed sets. It
// pins the p50, p90 and max of each cell in testdata, so a change to
// the search that moves any result shows here as a diff of what it
// costs or buys; `go test -run TestSearchRegret -update-regret` rewrites
// the file after a deliberate change. A grid frequency is one of 33, so
// the search can land a little below the grid (a negative regret).
func TestSearchRegret(t *testing.T) {
	shapes := regretShapes(t)
	var out strings.Builder
	fmt.Fprintf(&out, "# set metric device: relative regret p50 p90 max over %d shapes x 40 seeds\n", len(shapes))
	for _, metric := range []Metric{MetricRuntime, MetricEnergy} {
		obj := Objective{Metric: metric}
		for _, dev := range device.All() {
			s, sc := regretSearcher(t, dev, metric)
			grid := make([]float64, len(shapes))
			for i, req := range shapes {
				grid[i] = gridBest(t, dev, obj, req)
			}
			for set := uint64(1); set <= 3; set++ {
				regrets := make([]float64, 0, 40*len(shapes))
				for i, req := range shapes {
					for seed := uint64(1); seed <= 40; seed++ {
						s.opts.Seed = set<<32 | seed
						entry, _, err := s.tuneCore(req, sc)
						if err != nil {
							t.Fatal(err)
						}
						regrets = append(regrets, (entry.Objective-grid[i])/grid[i])
					}
				}
				sort.Float64s(regrets)
				fmt.Fprintf(&out, "%d %s %s: %.4f %.4f %.4f\n", set, metric, dev.Profile.Name,
					quantile(regrets, 0.5), quantile(regrets, 0.9), regrets[len(regrets)-1])
			}
		}
	}
	path := filepath.Join("testdata", "search_regret.golden")
	if *updateRegret {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-regret to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("search regret moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
