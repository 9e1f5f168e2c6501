package cluster

import (
	"fmt"
	"sort"

	"edgetune/internal/sim"
)

// Ring is a consistent-hash ring with virtual nodes: each node owns
// VirtualNodes points on a 64-bit hash circle, and a key belongs to the
// node owning the first point at or clockwise of the key's hash. With
// enough virtual nodes the key space splits near-evenly, and removing a
// node moves only the keys it owned — the property the minimal-disruption
// tests check.
//
// The ring is not goroutine-safe; the dispatcher mutates it only at
// construction (a failover promotes a shard's follower in place, so
// ownership never moves).
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with the given virtual-node count per
// node (values below 1 become 64).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// Add places node's virtual points on the ring. Adding a present node
// is a no-op.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash: hashKey(fmt.Sprintf("%s#%d", node, i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on name so the ring is identical however nodes were
		// added (64-bit collisions are absurdly unlikely but cheap to
		// make deterministic).
		return r.points[i].node < r.points[j].node
	})
}

// Owner returns the node owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise of the circle's top
	}
	return r.points[i].node
}

// Nodes lists the ring members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// hashKey is FNV-1a with a 64-bit avalanche finalizer. Bare FNV mixes
// a string's last bytes through a single multiply, which leaves ring
// points for near-identical names ("shard0#1", "shard0#2", …)
// correlated and the key shares badly skewed; the finalizer restores
// full-width dispersion.
func hashKey(s string) uint64 {
	h := sim.Hash64(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
