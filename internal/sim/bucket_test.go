package sim

import "testing"

func TestTokenBuckets(t *testing.T) {
	b := NewTokenBuckets(0.5, 2)
	// A new key starts full, and every Take — whichever key it charges —
	// is one tick of refill for all of them.
	for i, tc := range []struct {
		key string
		ok  bool
	}{
		{"a", true},  // 2 → 1
		{"a", true},  // 1.5 → 0.5
		{"a", true},  // 1 → 0
		{"a", false}, // 0.5
		{"b", true},  // b's own full bucket
		{"a", true},  // 0.5 + two ticks × 0.5 = 1.5 → 0.5
		{"a", true},  // 1 → 0
		{"a", false}, // 0.5
	} {
		tick, ok := b.Take(tc.key)
		if tick != int64(i+1) || ok != tc.ok {
			t.Fatalf("Take %d (%q) = tick %d, %v; want tick %d, %v", i, tc.key, tick, ok, i+1, tc.ok)
		}
	}
	// However long a key sits idle, it holds at most burst.
	for i := 0; i < 20; i++ {
		b.Take("b")
	}
	for i, want := range []bool{true, true, true, false} { // 2 → 1, 1.5 → 0.5, 1 → 0, 0.5
		if _, ok := b.Take("a"); ok != want {
			t.Fatalf("Take %d after idling = %v, want %v", i, ok, want)
		}
	}

	// A rate of zero admits everything, and the clock still runs.
	open := NewTokenBuckets(0, 1)
	for i := 1; i <= 5; i++ {
		if tick, ok := open.Take("a"); !ok || tick != int64(i) {
			t.Fatalf("unlimited Take %d = tick %d, %v", i, tick, ok)
		}
	}
}
