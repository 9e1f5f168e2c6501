package store

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
)

// pair is an entry's key: the architecture and the device it was tuned
// for, kept apart, so ("a@b", "c") and ("a", "b@c") are two keys.
type pair struct{ sig, dev string }

func keyOf(e *Entry) pair { return pair{e.Signature, e.Device} }

// Entry blocks start at minBlock entries, so a store that keeps a few
// holds no more than it needs, and double up to maxBlock; an entry's
// position is its block's index times maxBlock plus its offset in it.
// The table starts at minSlots slots.
const (
	minBlock   = 4
	blockShift = 8
	maxBlock   = 1 << blockShift
	minSlots   = 8
)

// index holds a store's entries and the table that finds them.
//
// The entries live in blocks of []Entry, in the order they were first
// put; a replaced entry is overwritten where it lies, and none is ever
// removed. The table is open-addressed with linear probing: a slot is
// 0 when empty and 1 + an entry's position otherwise. A probe hashes the
// signature and the device apart and confirms a hit on both fields, so
// no lookup builds a key. When a put would fill more than three quarters
// of the table, it doubles into one fresh slot array: a growing index
// copies 4-byte slots, never an entry.
//
// Nothing reads the table's slot order: Len is a count, and Entries and
// compaction walk the blocks and sort.
type index struct {
	slots  []uint32
	blocks [][]Entry
	n      int
}

// seed keys every index's hash; hashMask narrows it (tests plant a
// small mask to force keys into one probe chain).
var (
	seed     = maphash.MakeSeed()
	hashMask = ^uint64(0)
)

// hashPair hashes a key's two fields apart and folds them.
func hashPair(sig, dev string) uint64 {
	return (maphash.String(seed, sig) ^ bits.RotateLeft64(maphash.String(seed, dev), 32)) & hashMask
}

// at is the entry a nonempty slot holds.
func (x *index) at(slot uint32) *Entry {
	pos := slot - 1
	return &x.blocks[pos>>blockShift][pos&(maxBlock-1)]
}

// find returns the stored entry for (sig, dev), whose hash is h, or nil.
func (x *index) find(h uint64, sig, dev string) *Entry {
	if x.n == 0 {
		return nil
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := x.slots[i]
		if slot == 0 {
			return nil
		}
		if e := x.at(slot); e.Signature == sig && e.Device == dev {
			return e
		}
	}
}

// get returns the stored entry for (sig, dev), or nil.
func (x *index) get(sig, dev string) *Entry {
	return x.find(hashPair(sig, dev), sig, dev)
}

// put inserts e, or overwrites the entry stored under its key.
func (x *index) put(e Entry) {
	h := hashPair(e.Signature, e.Device)
	if p := x.find(h, e.Signature, e.Device); p != nil {
		*p = e
		return
	}
	if 4*(x.n+1) > 3*len(x.slots) {
		x.rehash(max(2*len(x.slots), minSlots))
	}
	x.insert(h, x.append(e))
	x.n++
}

// reserve sizes the table so that n more entries fit without a
// doubling. The blocks are left to grow as they do: one made for all n
// would set the size of the next, which a few more entries then open.
func (x *index) reserve(n int) {
	size := max(len(x.slots), minSlots)
	for 4*(x.n+n) > 3*size {
		size *= 2
	}
	if size > len(x.slots) {
		x.rehash(size)
	}
}

// append stores e at the end of the last block, opening a block of
// twice the last one's size when it is full, and returns the slot that
// names it.
func (x *index) append(e Entry) uint32 {
	b := len(x.blocks) - 1
	if b < 0 || len(x.blocks[b]) == cap(x.blocks[b]) {
		size := minBlock
		if b >= 0 {
			size = min(2*cap(x.blocks[b]), maxBlock)
		}
		x.blocks = append(x.blocks, make([]Entry, 0, size))
		b++
	}
	x.blocks[b] = append(x.blocks[b], e)
	return uint32(b<<blockShift + len(x.blocks[b]))
}

// insert writes slot into the first empty slot of h's probe chain.
func (x *index) insert(h uint64, slot uint32) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = slot
}

// rehash indexes every entry afresh in a table of size slots.
func (x *index) rehash(size int) {
	x.slots = make([]uint32, size)
	for b, block := range x.blocks {
		for o := range block {
			e := &block[o]
			x.insert(hashPair(e.Signature, e.Device), uint32(b<<blockShift+o+1))
		}
	}
}

// sorted copies the entries out in key order (cmpKeys). Their Configs
// are the stored maps. It sorts pointers, which swap cheaper than
// 80-byte entries.
func (x *index) sorted() []Entry {
	ps := make([]*Entry, 0, x.n)
	for _, block := range x.blocks {
		for i := range block {
			ps = append(ps, &block[i])
		}
	}
	slices.SortFunc(ps, cmpKeys)
	out := make([]Entry, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return out
}

// cmpKeys orders entries by the bytes of the joined "signature@device"
// string, the order snapshots have always listed them in, without
// building either string. Two keys that read alike there, ("a@b", "c")
// and ("a", "b@c"), list the shorter signature first.
func cmpKeys(a, b *Entry) int {
	x := [3]string{a.Signature, "@", a.Device}
	y := [3]string{b.Signature, "@", b.Device}
	i, j := 0, 0
	u, v := x[0], y[0]
	for {
		for u == "" && i < len(x)-1 {
			i++
			u = x[i]
		}
		for v == "" && j < len(y)-1 {
			j++
			v = y[j]
		}
		if u == "" || v == "" {
			break
		}
		n := min(len(u), len(v))
		if c := strings.Compare(u[:n], v[:n]); c != 0 {
			return c
		}
		u, v = u[n:], v[n:]
	}
	if c := cmp.Compare(len(u), len(v)); c != 0 {
		return c
	}
	return cmp.Compare(len(a.Signature), len(b.Signature))
}
