package main

import (
	"fmt"
	"math"
)

// rng is splitmix64. The harness keeps its own generator so that the
// inputs it makes do not move when the program's internal RNG does.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn is uniform in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of xs (Fisher–Yates on a copy).
func perm[T any](r *rng, xs []T) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// request is one generated inference-tuning request: a signature in the
// program's own format (workload.Signature) with the paper-scale
// footprint workload.PaperCost gives that architecture.
type request struct {
	sig    string
	flops  float64
	params float64
}

// sigGen yields an endless stream of distinct signatures for one
// client. The identity walks a seeded odd-stride sequence modulo 2^24,
// which never repeats within a run, with the client index folded in so
// two clients never collide. The server treats a signature as an opaque
// key; the footprint it tunes for is drawn separately from each model
// family's realistic range.
type sigGen struct {
	r      *rng
	client int
	pos    uint32
	stride uint32
}

func newSigGen(seed uint64, client int) *sigGen {
	r := newRNG(seed ^ (uint64(client+1) * 0xd1342543de82ef95))
	return &sigGen{r: r, client: client, pos: uint32(r.next()), stride: uint32(r.next()) | 1}
}

// sigModulus bounds the walk; with an odd stride it has full period.
const sigModulus = 1 << 24

func (g *sigGen) fresh() request {
	g.pos = (g.pos + g.stride) % sigModulus
	id := int(g.pos)*maxClients + g.client
	switch g.r.intn(3) {
	case 0: // IC: ResNet depth 18..152
		v := float64(18 + g.r.intn(135))
		return request{sig: fmt.Sprintf("IC/layers=%d", id), flops: v / 18 * 5.6e8, params: v / 18 * 11e6}
	case 1: // SR: M5 embedding width 32..512
		v := float64(32 + g.r.intn(481))
		return request{sig: fmt.Sprintf("SR/embed_dim=%d", id), flops: v * 6e6, params: v * 8e3}
	default: // OD: YOLO, footprint independent of the hyperparameter
		return request{sig: fmt.Sprintf("OD/dropout=%d", id), flops: 8e9, params: 62e6}
	}
}

// maxClients bounds the client goroutines a workload may start; the
// harness never uses more than nproc of them.
const maxClients = 8

// redraw picks which already-issued signature a hit re-requests: rank
// issued^u for uniform u, i.e. log-uniform over ranks, so the earliest
// signatures are asked for most and the newest almost never (§3.4's
// "repeat architectures").
func redraw(r *rng, issued int) int {
	i := int(math.Pow(float64(issued), r.float()))
	if i >= issued {
		i = issued - 1
	}
	return i
}

// Job seeds the tune workloads run. The seeds are fixed and a run at the
// declared length covers a whole pool exactly once; -seed decides only
// the order (and, on the cluster, which tenant gets which job). The wall
// time of a default job swings by up to 2x with Job.Seed — the seed picks
// which depths and batch sizes the 57 trials train — so letting -seed
// pick the jobs would make every run measure a different amount of work.
// Each pool holds seeds whose jobs cost about the same, so the median job
// of a run sits in a tight cluster and not in a gap between two.
var (
	icPool  = []uint64{5, 6, 7, 10, 11, 12, 15, 28, 29, 31}
	nlpPool = []uint64{1, 2, 3, 4, 5, 7, 9, 11, 13, 19, 21, 30}
)

// jobLists deals each client its fixed op list: perClient jobs, taken
// round-robin from seeded permutations of the pool — a fresh permutation
// per pass, so every pass covers the whole pool.
func jobLists(seed uint64, pool []uint64, clients, perClient int) [][]jobSpec {
	r := newRNG(seed ^ 0xa0761d6478bd642f)
	lists := make([][]jobSpec, clients)
	var cur []uint64
	for k := 0; k < clients*perClient; k++ {
		if k%len(pool) == 0 {
			cur = perm(r, pool)
		}
		c := k % clients
		lists[c] = append(lists[c], jobSpec{seed: cur[k%len(pool)], pass: k / len(pool)})
	}
	return lists
}
