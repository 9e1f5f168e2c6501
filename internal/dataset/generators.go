package dataset

import (
	"math"
	"math/bits"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// Synthetic corpus dimensions. Sizes are the Table 1 counts divided by
// _downScale, preserving the relative sizes of the four workloads.
const (
	_downScale = 50

	// ImageDim is the feature width of the image-classification dataset.
	ImageDim = 24
	// ImageClasses matches CIFAR10's 10 classes.
	ImageClasses = 10

	// SpeechDim is the waveform feature width.
	SpeechDim = 40
	// SpeechClasses matches the Speech Commands keyword count used in
	// typical 12-way evaluation setups.
	SpeechClasses = 12

	// NewsVocab is the vocabulary size of the token dataset.
	NewsVocab = 128
	// NewsSeqLen is the token-sequence length before striding.
	NewsSeqLen = 64
	// NewsClasses matches AG News' 4 topics.
	NewsClasses = 4

	// DetectDim is the detection feature width.
	DetectDim = 32
	// DetectClasses is the number of dominant-object classes.
	DetectClasses = 16
)

// teacher is a fixed random two-layer network used to label feature
// vectors. Labelling with a non-linear teacher makes model capacity
// matter: deeper/wider student networks genuinely reach higher accuracy,
// which is what gives the paper's model hyperparameters (layers,
// embedding dim) real influence on tuning outcomes.
type teacher struct {
	w1, w2 *tensor.Matrix
	// labelMargin's row view and products, kept across the thousands of
	// candidate rows one generator call labels.
	x, h, logits tensor.Matrix
}

func newTeacher(in, hidden, classes int, rng *sim.RNG) *teacher {
	return &teacher{
		w1: tensor.Randn(in, hidden, 1/math.Sqrt(float64(in)), rng),
		w2: tensor.Randn(hidden, classes, 1/math.Sqrt(float64(hidden)), rng),
	}
}

func (t *teacher) label(x *tensor.Matrix) []int {
	h := tensor.MatMul(x, t.w1)
	h.Apply(math.Tanh)
	logits := tensor.MatMul(h, t.w2)
	return logits.ArgmaxRows()
}

// labelMargin returns the label and the logit margin (top minus
// runner-up) for a single feature row.
func (t *teacher) labelMargin(row []float64) (int, float64) {
	t.x.Rows, t.x.Cols, t.x.Data = 1, len(row), row
	h := tensor.MatMulInto(&t.h, &t.x, t.w1)
	h.Apply(math.Tanh)
	logits := tensor.MatMulInto(&t.logits, h, t.w2)
	best, second, bestIdx := math.Inf(-1), math.Inf(-1), 0
	for j, v := range logits.Row(0) {
		if v > best {
			second = best
			best, bestIdx = v, j
		} else if v > second {
			second = v
		}
	}
	return bestIdx, best - second
}

// NewImageClassification emulates the IC workload (ResNet on CIFAR10):
// dense image-like feature vectors labelled by a non-linear teacher, with
// mild label noise standing in for the irreducible error of CIFAR10.
func NewImageClassification(seed uint64) Split {
	const (
		train = 50000 / _downScale
		test  = 10000 / _downScale
	)
	rng := sim.NewRNG(seed)
	t := newTeacher(ImageDim, 16, ImageClasses, rng)
	// Rejection-sample near-boundary points: a clean (but non-linear)
	// decision surface keeps the task learnable to high accuracy while
	// model depth still governs how well it is approximated.
	const margin = 0.5
	gen := func(n int, r *sim.RNG) *Dataset {
		x := tensor.New(n, ImageDim)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			row := x.Row(i)
			for attempt := 0; ; attempt++ {
				for j := range row {
					row[j] = r.NormFloat64()
				}
				label, m := t.labelMargin(row)
				if m >= margin || attempt >= 50 {
					labels[i] = label
					break
				}
			}
		}
		flipLabels(labels, ImageClasses, 0.05, r)
		return &Dataset{
			Meta: Meta{
				ID:              "IC",
				Corpus:          "CIFAR10 (synthetic analogue)",
				PaperTrainFiles: 50000,
				PaperTestFiles:  10000,
				PaperSizeBytes:  163 << 20,
				Scale:           _downScale,
			},
			X: x, Labels: labels, Classes: ImageClasses,
		}
	}
	return Split{Train: gen(train, rng.Split()), Test: gen(test, rng.Split())}
}

// NewSpeech emulates the SR workload (M5 on Speech Commands): each class
// is a keyword rendered as a short waveform of class-specific fundamental
// frequency with harmonics, phase jitter, and additive noise.
func NewSpeech(seed uint64) Split {
	const (
		train = 85511 / _downScale
		test  = 4890 / _downScale
	)
	rng := sim.NewRNG(seed)
	gen := func(n int, r *sim.RNG) *Dataset {
		x := tensor.New(n, SpeechDim)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := r.Intn(SpeechClasses)
			labels[i] = cls
			f := 0.2 + 0.05*float64(cls) // class fundamental frequency
			phase := r.Float64() * 2 * math.Pi
			amp2 := 0.3 + 0.4*r.Float64()
			row := x.Row(i)
			for j := range row {
				tt := float64(j)
				row[j] = math.Sin(f*tt+phase) +
					amp2*math.Sin(2*f*tt+phase) +
					0.7*r.NormFloat64()
			}
		}
		return &Dataset{
			Meta: Meta{
				ID:              "SR",
				Corpus:          "Speech Commands (synthetic analogue)",
				PaperTrainFiles: 85511,
				PaperTestFiles:  4890,
				PaperSizeBytes:  8_774_474_301, // 8.17 GiB
				Scale:           _downScale,
			},
			X: x, Labels: labels, Classes: SpeechClasses,
		}
	}
	return Split{Train: gen(train, rng.Split()), Test: gen(test, rng.Split())}
}

// NewNews emulates the NLP workload (RNN on AG News): token sequences
// drawn from class-specific unigram distributions over a shared
// vocabulary. The split holds the tokens and no features: the workload's
// stride hyperparameter subsamples them before featurisation
// (TokenPairs).
func NewNews(seed uint64) Split {
	const (
		train = 120000 / _downScale
		test  = 7600 / _downScale
	)
	rng := sim.NewRNG(seed)
	// Class-conditional unigram distributions: a shared background plus
	// a boosted class-specific topic block.
	weights := make([][]float64, NewsClasses)
	for c := range weights {
		w := make([]float64, NewsVocab)
		for v := range w {
			w[v] = 0.3 + rng.Float64()
		}
		blockSize := NewsVocab / NewsClasses
		for v := c * blockSize; v < (c+1)*blockSize; v++ {
			w[v] += 2.5
		}
		weights[c] = cumulative(w)
	}
	gen := func(n int, r *sim.RNG) *Dataset {
		tokens := make([][]uint8, n)
		labels := make([]int, n)
		// One block for the split's sequences; each is capped at its own
		// end, so an append moves it instead of reaching its neighbour.
		block := make([]uint8, n*NewsSeqLen)
		for i := 0; i < n; i++ {
			cls := r.Intn(NewsClasses)
			labels[i] = cls
			seq := block[i*NewsSeqLen : (i+1)*NewsSeqLen : (i+1)*NewsSeqLen]
			for j := range seq {
				seq[j] = uint8(sampleCumulative(weights[cls], r))
			}
			tokens[i] = seq
		}
		return &Dataset{
			Meta: Meta{
				ID:              "NLP",
				Corpus:          "AG News (synthetic analogue)",
				PaperTrainFiles: 120000,
				PaperTestFiles:  7600,
				PaperSizeBytes:  63_018_598, // 60.10 MB
				Scale:           _downScale,
			},
			Labels: labels, Classes: NewsClasses,
			Tokens: tokens, Vocab: NewsVocab,
		}
	}
	return Split{Train: gen(train, rng.Split()), Test: gen(test, rng.Split())}
}

// NewDetection emulates the OD workload (YOLO on COCO): each sample mixes
// a dominant object's signature with one or two distractor objects and
// heavy background clutter; the label is the dominant object. The clutter
// makes regularisation (the tuned dropout rate) genuinely matter.
func NewDetection(seed uint64) Split {
	const (
		train = 164000 / _downScale
		test  = 41000 / _downScale
	)
	rng := sim.NewRNG(seed)
	// Fixed class signatures.
	sig := tensor.Randn(DetectClasses, DetectDim, 1, rng)
	gen := func(n int, r *sim.RNG) *Dataset {
		x := tensor.New(n, DetectDim)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := r.Intn(DetectClasses)
			labels[i] = cls
			row := x.Row(i)
			copy(row, sig.Row(cls))
			// Distractor object at lower amplitude.
			d := r.Intn(DetectClasses)
			drow := sig.Row(d)
			for j := range row {
				row[j] += 0.5*drow[j] + 0.95*r.NormFloat64()
			}
		}
		flipLabels(labels, DetectClasses, 0.03, r)
		return &Dataset{
			Meta: Meta{
				ID:              "OD",
				Corpus:          "COCO (synthetic analogue)",
				PaperTrainFiles: 164000,
				PaperTestFiles:  41000,
				PaperSizeBytes:  19 << 30,
				Scale:           _downScale,
			},
			X: x, Labels: labels, Classes: DetectClasses,
		}
	}
	return Split{Train: gen(train, rng.Split()), Test: gen(test, rng.Split())}
}

// PairsWidth is the width of a TokenPairs row for n tokens taken at the
// stride: a pair for each token taken, the most there can be distinct.
func PairsWidth(n, stride int) int { return 2 * ((n + stride - 1) / stride) }

// TokenPairs featurises a token sequence into its bag of tokens, taking
// every stride-th token (stride ≥ 1): a token k taken c of n times is
// worth c/n. It writes the (k, c/n) pairs of the tokens taken into dst in
// increasing k — dst[2i] is k as a float64 — and zeros after them; dst
// holds at least PairsWidth(len(seq), stride) entries. That is the form
// tensor.PairsMatMulInto reads: the pairs are the non-zero entries of the
// Vocab-wide row of shares they stand for, bit for bit.
func TokenPairs(dst []float64, seq []uint8, stride int) {
	var (
		counts [256]int  // one per uint8
		taken  [4]uint64 // bit k%64 of word k/64: token k was taken
	)
	n := 0
	for i := 0; i < len(seq); i += stride {
		k := seq[i]
		counts[k]++
		taken[k>>6] |= 1 << (k & 63)
		n++
	}
	// Walk the tokens taken, not the vocabulary: a row holds a few dozen
	// of them at most, and which they are is a coin toss per k.
	inv, j := 1/float64(n), 0
	for w, set := range taken {
		for ; set != 0; set &= set - 1 {
			k := w<<6 | bits.TrailingZeros64(set)
			dst[j], dst[j+1] = float64(k), float64(counts[k])*inv
			j += 2
		}
	}
	clear(dst[j:])
}

// flipLabels randomly reassigns a fraction of labels, bounding the best
// achievable accuracy the way real-world label noise does.
func flipLabels(labels []int, classes int, frac float64, rng *sim.RNG) {
	for i := range labels {
		if rng.Float64() < frac {
			labels[i] = rng.Intn(classes)
		}
	}
}

// cumulative converts weights to a cumulative distribution.
func cumulative(w []float64) []float64 {
	out := make([]float64, len(w))
	var sum float64
	for i, v := range w {
		sum += v
		out[i] = sum
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// sampleCumulative draws an index from a cumulative distribution.
func sampleCumulative(cum []float64, rng *sim.RNG) int {
	u := rng.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
