package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"edgetune/internal/dataset"
	"edgetune/internal/device"
	"edgetune/internal/nn"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

func TestNewValidIDs(t *testing.T) {
	for _, id := range IDs() {
		w, err := New(id, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", id, err)
		}
		if w.ID != id {
			t.Errorf("ID = %q, want %q", w.ID, id)
		}
		if w.Split().Train.Len() == 0 || w.Split().Test.Len() == 0 {
			t.Errorf("%s: empty dataset", id)
		}
	}
	if _, err := New("CV", 1); err == nil {
		t.Error("unknown id did not error")
	}
}

func TestTrainSpaceShape(t *testing.T) {
	w := MustNew("IC", 1)
	withSys, err := w.TrainSpace(true)
	if err != nil {
		t.Fatal(err)
	}
	if withSys.Dim() != 3 {
		t.Errorf("onefold space dim = %d, want 3 (model + batch + gpus)", withSys.Dim())
	}
	without, err := w.TrainSpace(false)
	if err != nil {
		t.Fatal(err)
	}
	if without.Dim() != 2 {
		t.Errorf("hyper-only space dim = %d, want 2", without.Dim())
	}
}

func TestInferenceSpacePerDevice(t *testing.T) {
	w := MustNew("IC", 1)
	for _, dev := range device.All() {
		s, err := w.InferenceSpace(dev)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(1)
		for i := 0; i < 50; i++ {
			cfg := s.Sample(rng)
			if cfg[ParamCores] > float64(dev.Profile.MaxCores) {
				t.Fatalf("%s: sampled %v cores above device max", dev.Profile.Name, cfg[ParamCores])
			}
			if cfg[ParamFreq] < dev.Profile.MinFreqGHz || cfg[ParamFreq] > dev.Profile.MaxFreqGHz {
				t.Fatalf("%s: sampled frequency %v outside device range", dev.Profile.Name, cfg[ParamFreq])
			}
		}
	}
}

func TestBuildModelAllFamilies(t *testing.T) {
	tests := []struct {
		id  string
		cfg search.Config
	}{
		{id: "IC", cfg: search.Config{ParamLayers: 18}},
		{id: "IC", cfg: search.Config{ParamLayers: 50}},
		{id: "SR", cfg: search.Config{ParamEmbedDim: 64}},
		{id: "NLP", cfg: search.Config{ParamStride: 4}},
		{id: "OD", cfg: search.Config{ParamDropout: 0.3}},
	}
	rng := sim.NewRNG(1)
	for _, tt := range tests {
		w := MustNew(tt.id, 1)
		net, err := w.BuildModel(tt.cfg, rng)
		if err != nil {
			t.Fatalf("%s: %v", tt.id, err)
		}
		train, _, err := w.Data(tt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The network must accept the dataset's feature width.
		out := net.Forward(train.X, false)
		if out.Rows != train.Len() || out.Cols != train.Classes {
			t.Errorf("%s: output shape %dx%d, want %dx%d", tt.id, out.Rows, out.Cols, train.Len(), train.Classes)
		}
	}
}

func TestBuildModelValidation(t *testing.T) {
	w := MustNew("IC", 1)
	rng := sim.NewRNG(1)
	if _, err := w.BuildModel(search.Config{}, rng); err == nil {
		t.Error("missing model param accepted")
	}
	if _, err := w.BuildModel(search.Config{ParamLayers: 19}, rng); err == nil {
		t.Error("invalid layer count accepted")
	}
}

func TestDepthChangesCapacity(t *testing.T) {
	w := MustNew("IC", 1)
	rng := sim.NewRNG(1)
	small, err := w.BuildModel(search.Config{ParamLayers: 18}, rng)
	if err != nil {
		t.Fatal(err)
	}
	large, err := w.BuildModel(search.Config{ParamLayers: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if l, s := paramCount(large), paramCount(small); l <= s {
		t.Errorf("50-layer params %d not above 18-layer %d", l, s)
	}
}

// paramCount sums a network's scalar parameters.
func paramCount(net *nn.Network) int {
	c := 0
	for _, p := range net.Params() {
		c += p.Count()
	}
	return c
}

// TestSpacesAndCostsBuildNoData: what a recommendation, the batching
// planners and an inference server's set-up ask of a workload needs none
// of its data, so none is built until the first Split.
func TestSpacesAndCostsBuildNoData(t *testing.T) {
	for _, id := range IDs() {
		w := MustNew(id, 3)
		if _, err := w.InferenceSpace(device.I7()); err != nil {
			t.Fatal(err)
		}
		if _, err := w.TrainSpace(true); err != nil {
			t.Fatal(err)
		}
		cfg := search.Config{w.ModelParam.Name: w.ModelParam.GridValues(2)[0]}
		if _, _, err := w.PaperCost(cfg); err != nil {
			t.Fatal(err)
		}
		_ = w.Signature(cfg)
		_ = w.TargetAccuracy()
		if w.split.Train != nil || w.split.Test != nil {
			t.Errorf("%s: spaces and costs built the data", id)
		}
		if s := w.Split(); s.Train.Len() == 0 || s.Test.Len() == 0 {
			t.Errorf("%s: the first Split built no data", id)
		}
	}
}

// TestConcurrentFirstReadsBuildOnce: readers racing to the first Split
// all get the one split it builds.
func TestConcurrentFirstReadsBuildOnce(t *testing.T) {
	w := MustNew("IC", 5)
	got := make([]dataset.Split, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = w.Split()
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s.Train == nil || s != got[0] {
			t.Fatalf("reader %d got %p/%p, reader 0 %p/%p", i, s.Train, s.Test, got[0].Train, got[0].Test)
		}
	}
}

// TestReleaseBeforeReadBuildsNothing: a workload released unread hands
// nothing back and builds nothing afterwards.
func TestReleaseBeforeReadBuildsNothing(t *testing.T) {
	w := MustNew("SR", 2)
	w.Release()
	if s := w.Split(); s.Train != nil || s.Test != nil {
		t.Errorf("Split after Release = %p/%p, want none", s.Train, s.Test)
	}
	w.Release() // again: nothing
}

func TestSignatureReuseSemantics(t *testing.T) {
	w := MustNew("IC", 1)
	a := w.Signature(search.Config{ParamLayers: 34, ParamTrainBatch: 64, ParamGPUs: 1})
	b := w.Signature(search.Config{ParamLayers: 34, ParamTrainBatch: 512, ParamGPUs: 8})
	if a != b {
		t.Error("training batch/gpus must not change the architecture signature")
	}
	c := w.Signature(search.Config{ParamLayers: 50})
	if a == c {
		t.Error("different depth should change the signature")
	}
	if !strings.HasPrefix(a, "IC/") {
		t.Errorf("signature %q should be namespaced by workload", a)
	}
}

func TestNLPStrideRefeaturises(t *testing.T) {
	w := MustNew("NLP", 1)
	t1, _, err := w.Data(search.Config{ParamStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	t8, _, err := w.Data(search.Config{ParamStride: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := t1.X.Cols == t8.X.Cols
	for i := 0; same && i < len(t1.X.Data); i++ {
		same = t1.X.Data[i] == t8.X.Data[i]
	}
	if same {
		t.Error("stride change did not alter features")
	}
	// The original dataset must not be mutated.
	t1again, _, err := w.Data(search.Config{ParamStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1.X.Data {
		if t1.X.Data[i] != t1again.X.Data[i] {
			t.Fatal("refeaturisation mutated the base dataset")
		}
	}
	if _, _, err := w.Data(search.Config{ParamStride: 99}); err == nil {
		t.Error("out-of-range stride accepted")
	}
}

// TestDataInIsThePrefixOfData: for every stride and at a sliver, a part
// and all of the data, DataIn's training set is the first SubsetLen
// samples of Data's and its test set all of Data's, value for value —
// on an arena nobody has used, on one a larger featurisation has just
// used, and on one filled with NaNs (the feature matrix is carved
// uncleared) — and a stride outside the domain is Data's error.
func TestDataInIsThePrefixOfData(t *testing.T) {
	w := MustNew("NLP", 1)
	used, dirty := new(tensor.Arena), new(tensor.Arena)
	sameRows := func(got, want *dataset.Dataset, rows int) bool {
		if got.Len() != rows || len(got.Labels) != rows || len(got.Tokens) != rows || got.X.Cols != want.X.Cols {
			return false
		}
		for i, v := range got.X.Data {
			if v != want.X.Data[i] {
				return false
			}
		}
		return true
	}
	for stride := 1; stride <= 32; stride++ {
		cfg := search.Config{ParamStride: float64(stride)}
		train, test, err := w.Data(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.01, 0.3, 1} {
			k, err := dataset.SubsetLen(train.Len(), frac)
			if err != nil {
				t.Fatal(err)
			}
			used.Reset()
			if _, _, err := w.DataIn(used, search.Config{ParamStride: float64(33 - stride)}, 1); err != nil {
				t.Fatal(err)
			}
			used.Reset()
			dirty.Reset()
			floats := dirty.New(1, 1<<19).Data
			for i := range floats {
				floats[i] = math.NaN()
			}
			dirty.Reset()
			for name, a := range map[string]*tensor.Arena{"fresh": new(tensor.Arena), "used by a larger trial": used, "filled with NaNs": dirty, "nil": nil} {
				gotTrain, gotTest, err := w.DataIn(a, cfg, frac)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(gotTrain, train, k) || !sameRows(gotTest, test, test.Len()) {
					t.Fatalf("stride %d, fraction %g, arena %s: DataIn is not the first %d samples of Data and its test set", stride, frac, name, k)
				}
			}
		}
	}
	for _, stride := range []float64{0, 33} {
		_, _, want := w.Data(search.Config{ParamStride: stride})
		_, _, got := w.DataIn(new(tensor.Arena), search.Config{ParamStride: stride}, 0.3)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("stride %g: DataIn's error %v, Data's %v", stride, got, want)
		}
	}
	// A workload that featurises nothing hands out views of its split.
	ic := MustNew("IC", 1)
	train, test, err := ic.DataIn(used, search.Config{ParamLayers: 18}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := dataset.SubsetLen(ic.Split().Train.Len(), 0.3)
	if &train.X.Data[0] != &ic.Split().Train.X.Data[0] || test != ic.Split().Test || train.Len() != k {
		t.Errorf("IC: DataIn copied the split or took %d samples at 0.3, want %d", train.Len(), k)
	}
}

func TestPaperCost(t *testing.T) {
	tests := []struct {
		id       string
		cfgA     search.Config
		cfgB     search.Config
		wantGrow bool // cost(B) > cost(A)
	}{
		{id: "IC", cfgA: search.Config{ParamLayers: 18}, cfgB: search.Config{ParamLayers: 50}, wantGrow: true},
		{id: "SR", cfgA: search.Config{ParamEmbedDim: 32}, cfgB: search.Config{ParamEmbedDim: 128}, wantGrow: true},
		// Larger stride = fewer RNN steps = cheaper.
		{id: "NLP", cfgA: search.Config{ParamStride: 32}, cfgB: search.Config{ParamStride: 1}, wantGrow: true},
	}
	for _, tt := range tests {
		w := MustNew(tt.id, 1)
		fa, pa, err := w.PaperCost(tt.cfgA)
		if err != nil {
			t.Fatal(err)
		}
		fb, _, err := w.PaperCost(tt.cfgB)
		if err != nil {
			t.Fatal(err)
		}
		if fa <= 0 || pa <= 0 {
			t.Errorf("%s: non-positive paper cost", tt.id)
		}
		if tt.wantGrow && fb <= fa {
			t.Errorf("%s: FLOPs %v -> %v did not grow", tt.id, fa, fb)
		}
	}
	// OD: dropout does not change compute.
	w := MustNew("OD", 1)
	fa, _, _ := w.PaperCost(search.Config{ParamDropout: 0.1})
	fb, _, _ := w.PaperCost(search.Config{ParamDropout: 0.5})
	if fa != fb {
		t.Error("OD dropout changed the compute footprint")
	}
	if _, _, err := w.PaperCost(search.Config{}); err == nil {
		t.Error("missing model param accepted by PaperCost")
	}
}

// TestWorkloadsAreLearnable: every family must beat chance clearly after
// a short training run; otherwise accuracy cannot drive tuning.
func TestWorkloadsAreLearnable(t *testing.T) {
	configs := map[string]search.Config{
		"IC":  {ParamLayers: 34},
		"SR":  {ParamEmbedDim: 64},
		"NLP": {ParamStride: 1},
		"OD":  {ParamDropout: 0.2},
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			w := MustNew(id, 1)
			rng := sim.NewRNG(7)
			net, err := w.BuildModel(configs[id], rng)
			if err != nil {
				t.Fatal(err)
			}
			train, test, err := w.Data(configs[id])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := nn.Train(net, train.X, train.Labels, nn.TrainConfig{
				Epochs: 6, BatchSize: 64, LR: 0.1, Momentum: 0.9, Shuffle: true,
			}, rng); err != nil {
				t.Fatal(err)
			}
			acc := net.Accuracy(test.X, test.Labels)
			chance := 1 / float64(test.Classes)
			if acc < 2.5*chance {
				t.Errorf("accuracy %.3f below 2.5x chance %.3f", acc, 2.5*chance)
			}
		})
	}
}

func TestTargetAccuracyInRange(t *testing.T) {
	for _, id := range IDs() {
		w := MustNew(id, 1)
		if tgt := w.TargetAccuracy(); tgt <= 0 || tgt >= 1 {
			t.Errorf("%s: target accuracy %v out of (0,1)", id, tgt)
		}
	}
}

// shippedConfigs is one model configuration per workload.
var shippedConfigs = []struct {
	id  string
	cfg search.Config
}{
	{"IC", search.Config{ParamLayers: 18}},
	{"SR", search.Config{ParamEmbedDim: 64}},
	{"NLP", search.Config{ParamStride: 2}},
	{"OD", search.Config{ParamDropout: 0.3}},
}

// TestTrainStepAllocsOnShippedModels pins the steady-state mini-batch
// step on the models the tuner really trains: with the buffers grown to
// the full batch, a full batch, a ragged last batch, and a batch that
// shrinks then grows back allocate nothing between them (the ledger's
// bound for the outside-in probe, which allocates its own loss
// gradient, is 8).
func TestTrainStepAllocsOnShippedModels(t *testing.T) {
	for _, tt := range shippedConfigs {
		w := MustNew(tt.id, 1)
		net, err := w.BuildModel(tt.cfg, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		train, _, err := w.Data(tt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := nn.NewSGD(0.018, 0.9, 0)
		if err != nil {
			t.Fatal(err)
		}
		batches := []*tensor.Matrix{train.X.RowSlice(nil, 0, 64), train.X.RowSlice(nil, 0, 17), train.X.RowSlice(nil, 0, 40), train.X.RowSlice(nil, 0, 64)}
		steps := func() {
			for _, x := range batches {
				if _, err := net.TrainStep(opt, x, train.Labels[:x.Rows]); err != nil {
					t.Fatal(err)
				}
			}
		}
		steps()
		if allocs := testing.AllocsPerRun(5, steps); allocs != 0 {
			t.Errorf("%s: four steady-state steps allocate %.0f times, want 0", tt.id, allocs)
		}
	}
}

// TestChunkedAccuracyMatchesWholeMatrix: Accuracy evaluates in row
// chunks through the training buffers; on every workload's test split
// it equals scoring one whole-matrix Forward.
func TestChunkedAccuracyMatchesWholeMatrix(t *testing.T) {
	for _, tt := range shippedConfigs {
		w := MustNew(tt.id, 1)
		net, err := w.BuildModel(tt.cfg, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		_, test, err := w.Data(tt.cfg)
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i, class := range net.Forward(test.X, false).ArgmaxRowsInto(make([]int, test.X.Rows)) {
			if class == test.Labels[i] {
				correct++
			}
		}
		want := float64(correct) / float64(test.Len())
		if got := net.Accuracy(test.X, test.Labels); got != want {
			t.Errorf("%s: chunked accuracy %v, whole-matrix %v", tt.id, got, want)
		}
	}
}

// TestConfigKeyIsTheFmtForm: Config.Key writes, for every configuration
// of all four workloads' train spaces (both modes) and their inference
// spaces on every device, the bytes the fmt form "name=%g;" in name
// order writes. A trial's RNG seed hashes the key, so these bytes are
// every digest's.
func TestConfigKeyIsTheFmtForm(t *testing.T) {
	fmtKey := func(c search.Config) string {
		keys := make([]string, 0, len(c))
		for k := range c {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := ""
		for _, k := range keys {
			s += fmt.Sprintf("%s=%g;", k, c[k])
		}
		return s
	}
	for _, id := range IDs() {
		w := MustNew(id, 1)
		var spaces []*search.Space
		for _, system := range []bool{false, true} {
			s, err := w.TrainSpace(system)
			if err != nil {
				t.Fatal(err)
			}
			spaces = append(spaces, s)
		}
		for _, dev := range device.All() {
			s, err := w.InferenceSpace(dev)
			if err != nil {
				t.Fatal(err)
			}
			spaces = append(spaces, s)
		}
		rng := sim.NewRNG(9)
		for _, s := range spaces {
			for i := 0; i < 500; i++ {
				u := make([]float64, s.Dim())
				for j := range u {
					switch i {
					case 0: // the lower corner
					case 1:
						u[j] = 1
					default:
						u[j] = rng.Float64()
					}
				}
				cfg, err := s.FromUnit(u)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := cfg.Key(), fmtKey(cfg); got != want {
					t.Fatalf("%s: Key() = %q, the fmt form %q", id, got, want)
				}
			}
		}
	}
	// Values no space holds, and more names than Key keeps off the heap.
	odd := search.Config{"a": math.Inf(1), "b": math.Inf(-1), "c": math.NaN(), "d": 1e21, "e": 1e-7,
		"f": math.Copysign(0, -1), "g": 123456789, "h": 0.1 + 0.2, "i": -2.5e-300}
	if got, want := odd.Key(), fmtKey(odd); got != want {
		t.Errorf("Key() = %q, the fmt form %q", got, want)
	}
}
