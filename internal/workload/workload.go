// Package workload defines the paper's four evaluation workloads
// (Table 1) as tunable model families over the synthetic datasets:
//
//	IC  — ResNet-style residual classifier on the CIFAR10 analogue,
//	      tuning the number of layers {18, 34, 50};
//	SR  — M5-style classifier on the Speech Commands analogue, tuning
//	      the embedded dimension {32, 64, 128};
//	NLP — RNN-style classifier on the AG News analogue, tuning the
//	      stride [1, 32] that subsamples the token sequence;
//	OD  — YOLO-style classifier on the COCO analogue, tuning the
//	      dropout rate [0.1, 0.5].
//
// Each family builds a genuinely trainable network for a hyperparameter
// assignment and reports the *paper-scale* FLOP/parameter footprint of
// the model it emulates, which the performance model uses to charge
// simulated runtime and energy.
package workload

import (
	"fmt"
	"math"
	"sync"

	"edgetune/internal/dataset"
	"edgetune/internal/device"
	"edgetune/internal/nn"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// Parameter names shared across workloads.
const (
	// ParamTrainBatch is the training mini-batch size (§5.1: 32-512).
	ParamTrainBatch = "train_batch"
	// ParamGPUs is the training system parameter (§5.1: 1-8 GPUs).
	ParamGPUs = "gpus"
	// ParamInferBatch is the inference batch size (§5.1: 1-100).
	ParamInferBatch = "infer_batch"
	// ParamCores is the inference CPU-core count.
	ParamCores = "cores"
	// ParamFreq is the inference CPU frequency in GHz.
	ParamFreq = "freq_ghz"

	// Model hyperparameter names, one per workload (§5.1).
	ParamLayers   = "layers"
	ParamEmbedDim = "embed_dim"
	ParamStride   = "stride"
	ParamDropout  = "dropout"
)

// Workload couples a model family with its dataset and search spaces.
type Workload struct {
	// ID is the paper identifier: IC, SR, NLP, or OD.
	ID string
	// Task is the application domain.
	Task string
	// ModelFamily names the emulated architecture.
	ModelFamily string
	// ModelParam is the single model hyperparameter this family tunes.
	ModelParam search.Param

	family *family // the workload's row of Table 1
	seed   uint64
	once   sync.Once // builds split on the first read
	split  dataset.Split
}

// family is one row of Table 1: everything that differs between the
// workloads. build and cost take the value of the model hyperparameter.
type family struct {
	id, task, model string
	split           func(seed uint64) dataset.Split
	param           search.Param
	build           func(a *tensor.Arena, v float64, rng *sim.RNG) (*nn.Network, error)
	// cost is the paper-scale per-sample forward FLOPs and parameter
	// count, calibrated to the published footprints of the real models.
	cost func(v float64) (flopsPerSample, params float64)
	// target is calibrated per synthetic analogue so that it is
	// reachable by multi-epoch training but not by any single-epoch
	// (dataset-budget) run — the regime the paper's corpora live in.
	target float64
	// refeaturises says the hyperparameter changes the input features,
	// not the network: NLP's stride subsamples the token sequences.
	refeaturises bool
}

// families is Table 1, in its order.
var families = []family{
	{id: "IC", task: "Image Classification", model: "ResNet", split: dataset.NewImageClassification,
		param: search.Param{Name: ParamLayers, Kind: search.Choice, Choices: []float64{18, 34, 50}},
		build: buildResNet,
		// ResNet-18-class: ~0.56 GFLOPs, ~11M params, scaling with depth.
		cost:   func(v float64) (float64, float64) { return v / 18 * 5.6e8, v / 18 * 11e6 },
		target: 0.80},
	{id: "SR", task: "Speech Recognition", model: "M5", split: dataset.NewSpeech,
		param: search.Param{Name: ParamEmbedDim, Kind: search.Choice, Choices: []float64{32, 64, 128}},
		build: buildM5,
		// M5-class: ~0.2-0.8 GFLOPs over the embedding sweep.
		cost:   func(v float64) (float64, float64) { return v * 6e6, v * 8e3 },
		target: 0.90},
	{id: "NLP", task: "Natural Language Processing", model: "RNN", split: dataset.NewNews,
		param: search.Param{Name: ParamStride, Kind: search.Int, Min: 1, Max: 32},
		build: buildRNN,
		// RNN unrolled over seqLen/stride steps.
		cost:   func(v float64) (float64, float64) { return math.Ceil(dataset.NewsSeqLen/v) * 6e6, 2e6 },
		target: 0.70, refeaturises: true},
	{id: "OD", task: "Object Detection", model: "YOLO", split: dataset.NewDetection,
		param: search.Param{Name: ParamDropout, Kind: search.Float, Min: 0.1, Max: 0.5},
		build: buildYOLO,
		// YOLOv3-class: dropout does not change the compute footprint.
		cost:   func(float64) (float64, float64) { return 8e9, 62e6 },
		target: 0.90},
}

// IDs lists the workload identifiers in Table 1 order.
func IDs() []string {
	ids := make([]string, len(families))
	for i, f := range families {
		ids[i] = f.id
	}
	return ids
}

// New constructs a workload by paper ID with a deterministic seed. Its
// data is built on the first call to Split, so a workload asked only
// for its spaces and costs never builds any.
func New(id string, seed uint64) (*Workload, error) {
	for i := range families {
		if f := &families[i]; f.id == id {
			return &Workload{ID: id, Task: f.task, ModelFamily: f.model, ModelParam: f.param, family: f, seed: seed}, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown id %q (want IC, SR, NLP, or OD)", id)
}

// Split returns the train/test data, building it on the first call; any
// number of goroutines may call it at once.
func (w *Workload) Split() dataset.Split {
	w.once.Do(func() { w.split = w.family.split(w.seed) })
	return w.split
}

// Release hands the workload's split, if it was built, to the next New
// of the same ID, which regenerates into it (dataset.Release): what a
// tuning job calls once nothing it started reads the data any more. The
// workload holds no split afterwards and builds none; releasing it again
// does nothing. A workload that is never released is collected as ever.
func (w *Workload) Release() {
	w.once.Do(func() {})
	dataset.Release(w.split)
	w.split = dataset.Split{}
}

// MustNew is New for tests and examples with known-good IDs; it panics
// on error.
func MustNew(id string, seed uint64) *Workload {
	w, err := New(id, seed)
	if err != nil {
		panic(err)
	}
	return w
}

// TrainSpace returns the joint space the Model Tuning Server explores:
// the model hyperparameter, the training batch size, and (when
// systemParams is true, EdgeTune's onefold mode) the GPU count.
func (w *Workload) TrainSpace(systemParams bool) (*search.Space, error) {
	params := []search.Param{
		w.ModelParam,
		{Name: ParamTrainBatch, Kind: search.Int, Min: 32, Max: 512, Log: true},
	}
	if systemParams {
		params = append(params, search.Param{Name: ParamGPUs, Kind: search.Int, Min: 1, Max: 8})
	}
	return search.NewSpace(params...)
}

// InferenceSpace returns the space the Inference Tuning Server explores
// on a device: inference batch size, core count, and CPU frequency.
func (w *Workload) InferenceSpace(dev device.Device) (*search.Space, error) {
	return search.NewSpace(
		search.Param{Name: ParamInferBatch, Kind: search.Int, Min: 1, Max: 100, Log: true},
		search.Param{Name: ParamCores, Kind: search.Int, Min: 1, Max: float64(dev.Profile.MaxCores)},
		search.Param{Name: ParamFreq, Kind: search.Float, Min: dev.Profile.MinFreqGHz, Max: dev.Profile.MaxFreqGHz},
	)
}

// Signature returns the architecture identity of a configuration: the
// workload plus its model hyperparameter. Inference-tuning results are
// reusable across configurations with equal signatures (§3.4: training
// batch size and epochs do not affect the inference phase).
func (w *Workload) Signature(cfg search.Config) string {
	return fmt.Sprintf("%s/%s=%g", w.ID, w.ModelParam.Name, cfg[w.ModelParam.Name])
}

// BuildModel constructs a trainable network for the configuration.
func (w *Workload) BuildModel(cfg search.Config, rng *sim.RNG) (*nn.Network, error) {
	return w.BuildModelIn(nil, cfg, rng)
}

// BuildModelIn is BuildModel with the network's storage taken from a:
// the network is valid until a's next Reset.
func (w *Workload) BuildModelIn(a *tensor.Arena, cfg search.Config, rng *sim.RNG) (*nn.Network, error) {
	if rng == nil {
		rng = sim.NewRNG(w.seed ^ 0xabcdef)
	}
	v, ok := cfg[w.ModelParam.Name]
	if !ok {
		return nil, fmt.Errorf("workload %s: config missing %q", w.ID, w.ModelParam.Name)
	}
	if !w.ModelParam.Contains(v) {
		return nil, fmt.Errorf("workload %s: %s=%v outside domain", w.ID, w.ModelParam.Name, v)
	}
	return w.family.build(a, v, rng)
}

// resNetWidth is the hidden width of the residual trunk.
const resNetWidth = 32

func buildResNet(a *tensor.Arena, layers float64, rng *sim.RNG) (*nn.Network, error) {
	blocks := int(layers) / 8 // 18 -> 2, 34 -> 4, 50 -> 6 residual blocks
	if blocks < 1 {
		blocks = 1
	}
	ls := tensor.Take[nn.Layer](a, blocks+3)[:0]
	ls = append(ls, nn.NewDenseIn(a, dataset.ImageDim, resNetWidth, rng), nn.NewReLUIn(a))
	for i := 0; i < blocks; i++ {
		ls = append(ls, nn.NewResidualIn(a, resNetWidth, rng))
	}
	ls = append(ls, nn.NewDenseIn(a, resNetWidth, dataset.ImageClasses, rng))
	return nn.NewNetworkIn(a, ls...)
}

func buildM5(a *tensor.Arena, embedDim float64, rng *sim.RNG) (*nn.Network, error) {
	embed := int(embedDim)
	return nn.NewNetworkIn(a,
		nn.NewDenseIn(a, dataset.SpeechDim, embed, rng),
		nn.NewReLUIn(a),
		nn.NewDenseIn(a, embed, embed, rng),
		nn.NewReLUIn(a),
		nn.NewDenseIn(a, embed, dataset.SpeechClasses, rng),
	)
}

func buildRNN(a *tensor.Arena, _ float64, rng *sim.RNG) (*nn.Network, error) { // the stride shapes the data, not the network
	const hidden = 48
	return nn.NewNetworkIn(a,
		nn.NewPairsDenseIn(a, dataset.NewsVocab, hidden, rng), // reads what refeaturise writes
		nn.NewTanhIn(a),
		nn.NewDenseIn(a, hidden, dataset.NewsClasses, rng),
	)
}

func buildYOLO(a *tensor.Arena, dropout float64, rng *sim.RNG) (*nn.Network, error) {
	const hidden = 64
	d1, err := nn.NewDropoutIn(a, dropout, rng.Split())
	if err != nil {
		return nil, err
	}
	d2, err := nn.NewDropoutIn(a, dropout, rng.Split())
	if err != nil {
		return nil, err
	}
	return nn.NewNetworkIn(a,
		nn.NewDenseIn(a, dataset.DetectDim, hidden, rng),
		nn.NewReLUIn(a),
		d1,
		nn.NewDenseIn(a, hidden, hidden, rng),
		nn.NewReLUIn(a),
		d2,
		nn.NewDenseIn(a, hidden, dataset.DetectClasses, rng),
	)
}

// Data returns the training and test datasets featurised for the
// configuration. Only the NLP workload re-featurises: its stride
// hyperparameter subsamples the token sequences, and its rows are the
// (k, value) pairs of their bags of tokens (dataset.TokenPairs), which
// the model's first layer reads.
func (w *Workload) Data(cfg search.Config) (train, test *dataset.Dataset, err error) {
	return w.DataIn(nil, cfg, 1)
}

// DataIn is Data for one trial: of the training set only the prefix an
// allocation of frac trains on (dataset.Subset), and the headers of
// that view and whatever featurising takes come from a, so both
// datasets are valid until a's next Reset.
func (w *Workload) DataIn(a *tensor.Arena, cfg search.Config, frac float64) (train, test *dataset.Dataset, err error) {
	split := w.Split()
	if train, err = split.Train.Subset(a, frac); err != nil || !w.family.refeaturises {
		return train, split.Test, err
	}
	stride := int(cfg[ParamStride])
	if stride < 1 || stride > 32 {
		return nil, nil, fmt.Errorf("workload NLP: stride %d out of [1, 32]", stride)
	}
	return refeaturise(a, train, stride), refeaturise(a, split.Test, stride), nil
}

// refeaturise is d with its tokens counted at the stride into X, one
// row of pairs each. The Dataset and Matrix headers come from a, and
// the matrix's storage is taken as Resize takes it, uncleared:
// TokenPairs writes every entry of a row.
func refeaturise(a *tensor.Arena, d *dataset.Dataset, stride int) *dataset.Dataset {
	out, x := &tensor.Take[dataset.Dataset](a, 1)[0], &tensor.Take[tensor.Matrix](a, 1)[0]
	*out, *x = *d, a.Buffer()
	out.X = x.Resize(d.Len(), dataset.PairsWidth(dataset.NewsSeqLen, stride))
	for i, seq := range d.Tokens {
		dataset.TokenPairs(out.X.Row(i), seq, stride)
	}
	return out
}

// PaperCost reports the paper-scale per-sample forward FLOPs and
// parameter count of the emulated architecture for a configuration,
// used by the performance model. Values are calibrated to the published
// footprints of the real models (CIFAR-scale ResNets, M5, a word-level
// RNN, YOLOv3-class detector).
func (w *Workload) PaperCost(cfg search.Config) (flopsPerSample, params float64, err error) {
	v, ok := cfg[w.ModelParam.Name]
	if !ok {
		return 0, 0, fmt.Errorf("workload %s: config missing %q", w.ID, w.ModelParam.Name)
	}
	flopsPerSample, params = w.family.cost(v)
	return flopsPerSample, params, nil
}

// TargetAccuracy is the model-accuracy goal used throughout the paper's
// evaluation (§2.3: "tuned to reach at least 80% model accuracy").
// Synthetic datasets keep the same goal for IC; the harder multi-class
// analogues use family-calibrated targets with the same role.
func (w *Workload) TargetAccuracy() float64 {
	return w.family.target
}
