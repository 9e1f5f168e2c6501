package budget

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEpochStrategy(t *testing.T) {
	s := mustStrategy(t, KindEpochs)
	tests := []struct {
		it         int
		wantEpochs int
	}{
		{it: 1, wantEpochs: 2},
		{it: 2, wantEpochs: 4},
		{it: 5, wantEpochs: 10},
		{it: 9, wantEpochs: 10}, // capped
		{it: 0, wantEpochs: 2},  // clamped to 1
	}
	for _, tt := range tests {
		a := s.At(tt.it)
		if a.Epochs != tt.wantEpochs {
			t.Errorf("At(%d).Epochs = %d, want %d", tt.it, a.Epochs, tt.wantEpochs)
		}
		if a.DataFraction != 1 {
			t.Errorf("At(%d).DataFraction = %v, want 1 (epoch budget uses full data)", tt.it, a.DataFraction)
		}
	}
	if s.At(1) == s.Max() {
		t.Error("saturated at iteration 1")
	}
	if s.At(5) != s.Max() {
		t.Error("not saturated once max epochs reached")
	}
}

func TestDatasetStrategy(t *testing.T) {
	s := mustStrategy(t, KindDataset)
	tests := []struct {
		it       int
		wantFrac float64
	}{
		{it: 1, wantFrac: 0.1},
		{it: 5, wantFrac: 0.5},
		{it: 10, wantFrac: 1},
		{it: 20, wantFrac: 1}, // capped
	}
	for _, tt := range tests {
		a := s.At(tt.it)
		if a.DataFraction != tt.wantFrac {
			t.Errorf("At(%d).DataFraction = %v, want %v", tt.it, a.DataFraction, tt.wantFrac)
		}
		if a.Epochs != 1 {
			t.Errorf("At(%d).Epochs = %d, want 1 (dataset budget is single epoch)", tt.it, a.Epochs)
		}
	}
	if s.At(10) != s.Max() {
		t.Error("not saturated at full dataset")
	}
}

// TestMultiStrategyPaperExample replays the worked example of §4.3:
// minimum 2 epochs, max 10, minimum fraction 10%. The 2nd iteration is 4
// epochs on 20%, the 3rd 6 epochs on 30%; from the 5th iteration epochs
// stay at 10 while the fraction keeps growing until the 10th.
func TestMultiStrategyPaperExample(t *testing.T) {
	s := mustStrategy(t, KindMulti)
	tests := []struct {
		it         int
		wantEpochs int
		wantFrac   float64
	}{
		{it: 1, wantEpochs: 2, wantFrac: 0.1},
		{it: 2, wantEpochs: 4, wantFrac: 0.2},
		{it: 3, wantEpochs: 6, wantFrac: 0.3},
		{it: 5, wantEpochs: 10, wantFrac: 0.5},
		{it: 7, wantEpochs: 10, wantFrac: 0.7},
		{it: 10, wantEpochs: 10, wantFrac: 1},
		{it: 15, wantEpochs: 10, wantFrac: 1},
	}
	for _, tt := range tests {
		a := s.At(tt.it)
		if a.Epochs != tt.wantEpochs || math.Abs(a.DataFraction-tt.wantFrac) > 1e-12 {
			t.Errorf("At(%d) = {%d, %v}, want {%d, %v}",
				tt.it, a.Epochs, a.DataFraction, tt.wantEpochs, tt.wantFrac)
		}
	}
	if s.At(9) == s.Max() {
		t.Error("saturated before fraction reaches 1")
	}
	if s.At(10) != s.Max() {
		t.Error("not saturated at iteration 10")
	}
}

// TestMultiCheaperThanEpochAtSameIteration encodes the paper's argument
// that a multi-budget trial does "not take as long as if we would use the
// entire [dataset] or run for a fixed number of epochs": below
// saturation its cost is strictly below the epoch budget's.
func TestMultiCheaperThanEpochAtSameIteration(t *testing.T) {
	epoch, multi := mustStrategy(t, KindEpochs), mustStrategy(t, KindMulti)
	for it := 1; it <= 9; it++ {
		if multi.At(it).Cost() >= epoch.At(it).Cost() {
			t.Errorf("it %d: multi cost %v not below epoch cost %v",
				it, multi.At(it).Cost(), epoch.At(it).Cost())
		}
	}
}

func TestBudgetMonotonicity(t *testing.T) {
	strategies := allStrategies(t)
	f := func(a, b uint8) bool {
		i, j := int(a%30)+1, int(b%30)+1
		if i > j {
			i, j = j, i
		}
		for _, s := range strategies {
			ai, aj := s.At(i), s.At(j)
			if ai.Epochs > aj.Epochs || ai.DataFraction > aj.DataFraction {
				return false
			}
			if ai.Cost() > aj.Cost() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAllocationBounds holds every row's allocations inside (0, Max]
// and holds Max to the allocation the row levels off at, bit for bit.
func TestAllocationBounds(t *testing.T) {
	for kind, s := range allStrategies(t) {
		top := s.Max()
		for it := 1; it <= 50; it++ {
			a := s.At(it)
			if a.Epochs < 1 || a.Epochs > top.Epochs {
				t.Errorf("%s At(%d).Epochs = %d outside [1, %d]", kind, it, a.Epochs, top.Epochs)
			}
			if a.DataFraction <= 0 || a.DataFraction > 1 {
				t.Errorf("%s At(%d).DataFraction = %v out of (0,1]", kind, it, a.DataFraction)
			}
		}
		if got := s.At(10); got != top {
			t.Errorf("%s At(10) = %+v, want Max() = %+v", kind, got, top)
		}
	}
}

func TestRegistry(t *testing.T) {
	def, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	if multi := mustStrategy(t, KindMulti); def != multi {
		t.Errorf("New(\"\") = %+v, want the multi-budget %+v", def, multi)
	}
	if _, err := New("time"); err == nil {
		t.Error("unknown kind did not error")
	}
}

func TestCost(t *testing.T) {
	a := Allocation{Epochs: 4, DataFraction: 0.25}
	if got := a.Cost(); got != 1 {
		t.Errorf("Cost = %v, want 1", got)
	}
}

func allStrategies(t *testing.T) map[string]Strategy {
	t.Helper()
	all := make(map[string]Strategy, 3)
	for _, kind := range []string{KindEpochs, KindDataset, KindMulti} {
		all[kind] = mustStrategy(t, kind)
	}
	return all
}

func mustStrategy(t *testing.T, kind string) Strategy {
	t.Helper()
	s, err := New(kind)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
