package sim

// TokenBuckets is a keyed token bucket on a deterministic clock: "time"
// is the tick — one per Take, whichever key it charges — not the wall
// clock. A key's bucket starts full, refills by rate tokens per tick
// since its last use, holds at most burst, and a Take spends one. A
// fixed sequence of Takes therefore always gets the same verdicts. The
// cluster's per-tenant quota is one of these.
//
// Like RNG it is not safe for concurrent use; the cluster serialises its
// admissions under a lock of its own.
type TokenBuckets struct {
	rate   float64
	burst  float64
	tick   int64
	tokens map[string]float64
	last   map[string]int64
}

// NewTokenBuckets returns buckets earning rate tokens per tick up to
// burst. A rate of zero or less admits everything.
func NewTokenBuckets(rate float64, burst int) *TokenBuckets {
	return &TokenBuckets{
		rate:   rate,
		burst:  float64(burst),
		tokens: make(map[string]float64),
		last:   make(map[string]int64),
	}
}

// Take advances the clock one tick and charges one token to key,
// reporting false when its bucket holds less than one. The tick is the
// Take's position on the clock (callers use it as an SLO event time).
func (b *TokenBuckets) Take(key string) (tick int64, ok bool) {
	b.tick++
	if b.rate <= 0 {
		return b.tick, true
	}
	t, seen := b.tokens[key]
	if !seen {
		t = b.burst // a new key starts with a full bucket
	} else {
		t += float64(b.tick-b.last[key]) * b.rate
		if t > b.burst {
			t = b.burst
		}
	}
	b.last[key] = b.tick
	if t < 1 {
		b.tokens[key] = t
		return b.tick, false
	}
	b.tokens[key] = t - 1
	return b.tick, true
}
