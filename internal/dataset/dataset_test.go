package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

func allSplits(seed uint64) map[string]Split {
	return map[string]Split{
		"IC":  NewImageClassification(seed),
		"SR":  NewSpeech(seed),
		"NLP": NewNews(seed),
		"OD":  NewDetection(seed),
	}
}

func TestGeneratorSizesMatchTable1Ratios(t *testing.T) {
	tests := []struct {
		id          string
		paperTrain  int
		paperTest   int
		wantClasses int
	}{
		{id: "IC", paperTrain: 50000, paperTest: 10000, wantClasses: ImageClasses},
		{id: "SR", paperTrain: 85511, paperTest: 4890, wantClasses: SpeechClasses},
		{id: "NLP", paperTrain: 120000, paperTest: 7600, wantClasses: NewsClasses},
		{id: "OD", paperTrain: 164000, paperTest: 41000, wantClasses: DetectClasses},
	}
	splits := allSplits(1)
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			s := splits[tt.id]
			if got := s.Train.Len(); got != tt.paperTrain/_downScale {
				t.Errorf("train size = %d, want %d", got, tt.paperTrain/_downScale)
			}
			if got := s.Test.Len(); got != tt.paperTest/_downScale {
				t.Errorf("test size = %d, want %d", got, tt.paperTest/_downScale)
			}
			if s.Train.Classes != tt.wantClasses {
				t.Errorf("classes = %d, want %d", s.Train.Classes, tt.wantClasses)
			}
			if s.Train.Meta.PaperTrainFiles != tt.paperTrain {
				t.Errorf("meta train files = %d, want %d", s.Train.Meta.PaperTrainFiles, tt.paperTrain)
			}
			// Paper-scale accounting should recover the paper counts.
			if got := s.Train.PaperSamples(); math.Abs(got-float64(tt.paperTrain)) > float64(_downScale) {
				t.Errorf("PaperSamples = %v, want ~%d", got, tt.paperTrain)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for id := range allSplits(7) {
		a, b := allSplits(7)[id], allSplits(7)[id]
		if a.Train.Len() != b.Train.Len() {
			t.Fatalf("%s: lengths differ", id)
		}
		fa, fb := features(a.Train), features(b.Train)
		for i := 0; i < a.Train.Len()*fa.Cols; i++ {
			if fa.Data[i] != fb.Data[i] {
				t.Fatalf("%s: feature %d differs across same-seed runs", id, i)
			}
		}
		for i, seq := range a.Train.Tokens {
			if string(seq) != string(b.Train.Tokens[i]) {
				t.Fatalf("%s: sequence %d differs across same-seed runs", id, i)
			}
		}
		for i, l := range a.Train.Labels {
			if l != b.Train.Labels[i] {
				t.Fatalf("%s: label %d differs across same-seed runs", id, i)
			}
		}
	}
}

func TestGeneratorsSeedSensitivity(t *testing.T) {
	a := NewImageClassification(1).Train
	b := NewImageClassification(2).Train
	same := 0
	for i := range a.X.Data {
		if a.X.Data[i] == b.X.Data[i] {
			same++
		}
	}
	if same == len(a.X.Data) {
		t.Error("different seeds produced identical features")
	}
}

func TestLabelsInRange(t *testing.T) {
	for id, s := range allSplits(3) {
		for _, d := range []*Dataset{s.Train, s.Test} {
			for i, l := range d.Labels {
				if l < 0 || l >= d.Classes {
					t.Fatalf("%s: label[%d] = %d out of [0,%d)", id, i, l, d.Classes)
				}
			}
		}
	}
}

func TestAllClassesPresent(t *testing.T) {
	for id, s := range allSplits(5) {
		seen := make(map[int]bool)
		for _, l := range s.Train.Labels {
			seen[l] = true
		}
		if len(seen) != s.Train.Classes {
			t.Errorf("%s: only %d/%d classes present in train set", id, len(seen), s.Train.Classes)
		}
	}
}

func TestSubset(t *testing.T) {
	d := NewImageClassification(1).Train
	tests := []struct {
		frac float64
		want int
	}{
		{frac: 1, want: d.Len()},
		{frac: 0.5, want: d.Len() / 2},
		{frac: 0.0001, want: 1}, // never empty
	}
	for _, tt := range tests {
		sub, err := d.Subset(tt.frac)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Len() != tt.want {
			t.Errorf("Subset(%v) len = %d, want %d", tt.frac, sub.Len(), tt.want)
		}
		if k, err := SubsetLen(d.Len(), tt.frac); err != nil || k != tt.want {
			t.Errorf("SubsetLen(%d, %v) = %d, %v, want %d", d.Len(), tt.frac, k, err, tt.want)
		}
		// A view, not a copy: the prefix shares the parent's storage.
		if &sub.X.Data[0] != &d.X.Data[0] || len(sub.X.Data) != sub.Len()*d.X.Cols {
			t.Errorf("Subset(%v) copied its features", tt.frac)
		}
		// Prefix property: features must match the parent's prefix.
		for i := 0; i < sub.Len()*sub.X.Cols; i++ {
			if sub.X.Data[i] != d.X.Data[i] {
				t.Fatalf("Subset(%v) is not a prefix at %d", tt.frac, i)
			}
		}
	}
}

func TestSubsetErrors(t *testing.T) {
	d := NewImageClassification(1).Train
	for _, frac := range []float64{0, -0.5, 1.5} {
		if _, err := d.Subset(frac); err == nil {
			t.Errorf("Subset(%v) did not error", frac)
		}
	}
}

func TestSubsetMonotoneContainment(t *testing.T) {
	d := NewNews(1).Train
	f := func(a, b uint8) bool {
		fa := 0.01 + float64(a%100)/100
		fb := 0.01 + float64(b%100)/100
		if fa > 1 {
			fa = 1
		}
		if fb > 1 {
			fb = 1
		}
		if fa > fb {
			fa, fb = fb, fa
		}
		small, err1 := d.Subset(fa)
		large, err2 := d.Subset(fb)
		if err1 != nil || err2 != nil {
			return false
		}
		// A smaller budget's data must be a prefix of the larger one's.
		if small.Len() > large.Len() {
			return false
		}
		for i := 0; i < small.Len(); i++ {
			if small.Labels[i] != large.Labels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewsTokensRetained(t *testing.T) {
	s := NewNews(1)
	if s.Train.Tokens == nil {
		t.Fatal("news dataset lost tokens")
	}
	if len(s.Train.Tokens) != s.Train.Len() {
		t.Fatalf("tokens %d != samples %d", len(s.Train.Tokens), s.Train.Len())
	}
	for _, seq := range s.Train.Tokens[:10] {
		if len(seq) != NewsSeqLen {
			t.Fatalf("sequence length %d, want %d", len(seq), NewsSeqLen)
		}
		for _, tok := range seq {
			if int(tok) >= NewsVocab {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
	}
	sub, err := s.Train.Subset(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Tokens) != sub.Len() {
		t.Error("subset lost token alignment")
	}
}

// TestNewsSequencesDoNotReachTheirNeighbours: the sequences of a split
// share one block, each capped at its own end, so appending to one
// leaves the next as generated.
func TestNewsSequencesDoNotReachTheirNeighbours(t *testing.T) {
	d := NewNews(1).Test
	for i, seq := range d.Tokens {
		if len(seq) != NewsSeqLen || cap(seq) != NewsSeqLen {
			t.Fatalf("sequence %d has len %d cap %d, want %d and %d", i, len(seq), cap(seq), NewsSeqLen, NewsSeqLen)
		}
	}
	next := append([]uint8(nil), d.Tokens[1]...)
	_ = append(d.Tokens[0], 0xff) // not a token
	for j, tok := range d.Tokens[1] {
		if tok != next[j] {
			t.Fatalf("appending to sequence 0 wrote token %d of sequence 1", j)
		}
	}
}

// bagOfTokens is the dense featurisation TokenPairs replaced, kept as
// its reference: dst[k] is the share of the stride-th tokens of seq that
// are k.
func bagOfTokens(dst []float64, seq []uint8, stride int) {
	for i := range dst {
		dst[i] = 0
	}
	count := 0
	for i := 0; i < len(seq); i += stride {
		dst[seq[i]]++
		count++
	}
	if count > 0 {
		inv := 1 / float64(count)
		for i := range dst {
			dst[i] *= inv
		}
	}
}

// features is d's feature matrix; a token dataset's is the dense bag of
// tokens of every sequence, as NewNews used to build it.
func features(d *Dataset) *tensor.Matrix {
	if d.X != nil {
		return d.X
	}
	x := tensor.New(d.Len(), d.Vocab)
	for i, seq := range d.Tokens {
		bagOfTokens(x.Row(i), seq, 1)
	}
	return x
}

// decodesTo reports whether the pair row p stands for the dense row
// exactly: its pairs are the non-zero entries of dense in increasing k,
// bit for bit, and everything after them is zero.
func decodesTo(p, dense []float64) bool {
	nonZero := 0
	for _, v := range dense {
		if v != 0 {
			nonZero++
		}
	}
	for i := 0; i < len(p); i += 2 {
		k, v := p[i], p[i+1]
		if i >= 2*nonZero {
			if math.Float64bits(k) != 0 || math.Float64bits(v) != 0 {
				return false
			}
			continue
		}
		if k != math.Trunc(k) || k < 0 || int(k) >= len(dense) || math.Float64bits(v) != math.Float64bits(dense[int(k)]) ||
			(i > 0 && k <= p[i-2]) {
			return false
		}
	}
	return 2*nonZero <= len(p)
}

// TestBagOfTokens: TokenPairs writes a sequence's bag of tokens as the
// (k, share) pairs of its tokens in increasing k over a dirty row, zeros
// after them — by hand on a short sequence, and decoding to the bits of
// the dense bag of tokens for every row of a seeded corpus at every
// stride the NLP workload tunes.
func TestBagOfTokens(t *testing.T) {
	seq := []uint8{2, 1, 2, 0}
	dst := []float64{9, 9, 9, 9, 9, 9, 9, 9}
	TokenPairs(dst, seq, 1)
	want := []float64{0, 0.25, 1, 0.25, 2, 0.5, 0, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("stride 1: pairs %v, want %v", dst, want)
		}
	}
	// Stride 2 takes tokens 2 and 2.
	if dst = dst[:PairsWidth(len(seq), 2)]; len(dst) != 4 {
		t.Fatalf("PairsWidth(4, 2) = %d, want 4", len(dst))
	}
	if TokenPairs(dst, seq, 2); dst[0] != 2 || dst[1] != 1 || dst[2] != 0 || dst[3] != 0 {
		t.Errorf("stride 2: pairs %v, want [2 1 0 0]", dst)
	}

	split := NewNews(1)
	dense := make([]float64, NewsVocab)
	for stride := 1; stride <= 32; stride++ {
		row := make([]float64, PairsWidth(NewsSeqLen, stride))
		for _, d := range []*Dataset{split.Train, split.Test} {
			for i, seq := range d.Tokens {
				for j := range row {
					row[j] = math.NaN()
				}
				TokenPairs(row, seq, stride)
				if bagOfTokens(dense, seq, stride); !decodesTo(row, dense) {
					t.Fatalf("stride %d, sequence %d: pairs %v do not stand for the bag of tokens %v", stride, i, row, dense)
				}
			}
		}
	}
}

func TestSampleCumulative(t *testing.T) {
	rng := sim.NewRNG(1)
	cum := cumulative([]float64{1, 1, 8})
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[sampleCumulative(cum, rng)]++
	}
	if counts[2] < 7000 {
		t.Errorf("heavy bucket drew %d/10000, want ~8000", counts[2])
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Error("light buckets never drawn")
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Nearest-centroid accuracy must beat chance comfortably on every
	// dataset; otherwise tuning cannot produce meaningful accuracy
	// differences.
	for id, s := range allSplits(11) {
		d, x := s.Train, features(s.Train)
		dim := x.Cols
		centroids := make([][]float64, d.Classes)
		counts := make([]int, d.Classes)
		for c := range centroids {
			centroids[c] = make([]float64, dim)
		}
		for i := 0; i < d.Len(); i++ {
			row := x.Row(i)
			c := d.Labels[i]
			counts[c]++
			for j, v := range row {
				centroids[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			for j := range centroids[c] {
				centroids[c][j] /= float64(counts[c])
			}
		}
		correct := 0
		test, testX := s.Test, features(s.Test)
		for i := 0; i < test.Len(); i++ {
			row := testX.Row(i)
			best, bestC := math.Inf(1), 0
			for c := range centroids {
				var dist float64
				for j, v := range row {
					diff := v - centroids[c][j]
					dist += diff * diff
				}
				if dist < best {
					best, bestC = dist, c
				}
			}
			if bestC == test.Labels[i] {
				correct++
			}
		}
		acc := float64(correct) / float64(test.Len())
		chance := 1 / float64(d.Classes)
		if acc < 2*chance {
			t.Errorf("%s: nearest-centroid accuracy %.3f not above 2x chance %.3f", id, acc, 2*chance)
		}
	}
}
