package tensor

// The routines behind MatMulInto, MatMulATInto and MatMulBTInto, and
// behind their forms over (k, value) pairs, PairsMatMulInto and
// PairsMatMulATInto. Their contract (DESIGN.md §4.15, "Kernels"): every
// output element is the sum of its products taken in increasing k order,
// one rounding per product and one per add, and — for every op but
// MatMulBT — a zero in a contributes no term at all, whatever b holds
// opposite it. A routine may keep a running sum in a register across
// several k, because a float64 survives a store and a load unchanged; it
// may not reorder, split or fuse the sum.

// stretch is how many coefficients gather packs before it adds them.
const stretch = 32

// packed is a stretch of non-zero coefficients side by side, after up to
// three left over by the last stretch: av[i]·b[at[i]:][:n] is a term.
type packed struct {
	av [stretch + 3]float64
	at [stretch + 3]int
}

// gather adds a[k*ks]·b[k] to the output row o for every k < inner with
// a[k*ks] != 0, in k order. It first packs the non-zeros of a stretch of
// the a-vector side by side — a store and a conditional increment per
// entry, no branch to mispredict on an operand whose zeros fall where a
// ReLU put them — and then takes them four at a time, so that o is
// loaded and stored once per four products.
func gather(o, a []float64, ks, inner int, b []float64) {
	var p packed
	n, c := len(o), 0
	for k0 := 0; k0 < inner; k0 += stretch {
		for k := k0; k < min(k0+stretch, inner); k++ {
			v := a[k*ks]
			p.av[c], p.at[c] = v, k*n
			if v != 0 {
				c++
			}
		}
		c = p.addFours(o, c, b)
	}
	p.addRest(o, c, b)
}

// gatherPairs is gather for a coefficient row p given as the (k, value)
// pairs of its non-zeros in increasing k — p[2i] is k as a float64,
// p[2i+1] the value — rather than as the row itself: it packs a stretch
// of pairs instead of a stretch of the row, so what it reads is the
// number of pairs, not the width of the row. A pair whose value is zero
// (the padding after the last pair) adds no term, whatever its k.
func gatherPairs(o, p, b []float64) {
	var q packed
	n, c := len(o), 0
	for i0 := 0; i0 < len(p); i0 += 2 * stretch {
		pairs := p[i0:min(i0+2*stretch, len(p))]
		for i := 0; i+1 < len(pairs); i += 2 {
			v := pairs[i+1]
			q.av[c], q.at[c] = v, int(pairs[i])*n
			if v != 0 {
				c++
			}
		}
		c = q.addFours(o, c, b)
	}
	q.addRest(o, c, b)
}

// addFours adds the first c packed terms to o four at a time, moves the
// up to three left over to the front, and returns how many those are.
func (p *packed) addFours(o []float64, c int, b []float64) int {
	n, g := len(o), 0
	for ; g+4 <= c; g += 4 {
		a0, a1, a2, a3 := p.av[g], p.av[g+1], p.av[g+2], p.av[g+3]
		b0, b1, b2, b3 := b[p.at[g]:][:n], b[p.at[g+1]:][:n], b[p.at[g+2]:][:n], b[p.at[g+3]:][:n]
		for j := range o {
			s := o[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			o[j] = s
		}
	}
	for i := g; i < c; i++ { // at most three wait for the next stretch
		p.av[i-g], p.at[i-g] = p.av[i], p.at[i]
	}
	return c - g
}

// addRest adds the first c packed terms to o one by one.
func (p *packed) addRest(o []float64, c int, b []float64) {
	for i := 0; i < c; i++ {
		axpy(o, p.av[i], b[p.at[i]:][:len(o)])
	}
}

// scatterPairs adds v·g to row k of the n-wide matrix o for every pair
// (k, v) of p with v != 0. Called on the rows r of a pair matrix in
// increasing r, it sums every element of o over r in order, as gather
// does down a column of the rows the pairs stand for.
func scatterPairs(o []float64, n int, p, g []float64) {
	for i := 0; i+1 < len(p); i += 2 {
		if v := p[i+1]; v != 0 {
			axpy(o[int(p[i])*n:][:n], v, g)
		}
	}
}

// axpy adds av·b to o.
func axpy(o []float64, av float64, b []float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += av * b[j]
	}
}

// dots writes a·bⱼ for every row bⱼ of the len(o)×len(a) matrix b into
// o, four rows at a time.
func dots(o, a, b []float64) {
	n := len(a)
	j := 0
	for ; j+4 <= len(o); j += 4 {
		o[j], o[j+1], o[j+2], o[j+3] = dot4(a, b[j*n:(j+4)*n])
	}
	for ; j < len(o); j++ {
		bj := b[j*n:][:n]
		var s float64
		for k, av := range a {
			s += av * bj[k]
		}
		o[j] = s
	}
}

// dot4 returns the dot products of a with the four rows of b: four
// sums, each over k in order, that do not wait on one another the way a
// single running sum waits on itself.
func dot4(a, b []float64) (s0, s1, s2, s3 float64) {
	n := len(a)
	b0, b1, b2, b3 := b[:n], b[n:][:n], b[2*n:][:n], b[3*n:][:n]
	for k, av := range a {
		s0 += av * b0[k]
		s1 += av * b1[k]
		s2 += av * b2[k]
		s3 += av * b3[k]
	}
	return
}
