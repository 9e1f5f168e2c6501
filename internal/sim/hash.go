package sim

// HashOffset is where every hash in the tree starts: FNV-1a's 64-bit
// prime with a basis that is not the standard one (the standard basis
// is 14695981039346656037). Every seed, span ID, event ID and digest
// was first derived with this one, so it is the one that stays.
const (
	HashOffset uint64 = 1469598103934665603
	hashPrime  uint64 = 1099511628211
)

// Hash64 hashes a string: per-signature sampler seeds, per-configuration
// training seeds, device jitter, ring points.
func Hash64(s string) uint64 { return HashString(HashOffset, s) }

// HashString folds the bytes of s into h, one FNV-1a step each.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// HashUint64 folds the eight bytes of v into h, lowest first.
func HashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * hashPrime
		v >>= 8
	}
	return h
}
