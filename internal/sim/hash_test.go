package sim

import "testing"

// TestHash64MatchesTheLoopsItReplaced holds the hash helpers to the
// loops written out in core, trial, device, cluster, obs and flight
// before they were one function: every seed and ID derived from them
// must stay bit-identical.
func TestHash64MatchesTheLoopsItReplaced(t *testing.T) {
	ref := func(h uint64, s string) uint64 {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	}
	refU64 := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
		return h
	}
	for _, s := range []string{"", "a", "IC/layers=18", "i7", "shard0#1", "héllo\x00\xff"} {
		if got, want := Hash64(s), ref(1469598103934665603, s); got != want {
			t.Errorf("Hash64(%q) = %d, want %d", s, got, want)
		}
		if got, want := HashString(42, s), ref(42, s); got != want {
			t.Errorf("HashString(42, %q) = %d, want %d", s, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 0xff, 0x0123456789abcdef, ^uint64(0)} {
		if got, want := HashUint64(7, v), refU64(7, v); got != want {
			t.Errorf("HashUint64(7, %#x) = %d, want %d", v, got, want)
		}
	}
	// The value core.hashSignature returned at the parent commit.
	if got := Hash64("IC/layers=18"); got != 11337998238855644108 {
		t.Errorf("Hash64 moved: %d", got)
	}
}
