package tensor

// The routines behind MatMulInto, MatMulATInto and MatMulBTInto. Their
// contract (DESIGN.md §4.15, "Kernels"): every output element is the sum
// of its products taken in increasing k order, one rounding per product
// and one per add, and — for the two accumulating ops — a zero in a
// contributes no term at all, whatever b holds opposite it. A routine
// may keep a running sum in a register across several k, because a
// float64 survives a store and a load unchanged; it may not reorder,
// split or fuse the sum.

// gather adds a[k*ks]·b[k] to the output row o for every k < inner with
// a[k*ks] != 0, in k order. It first packs the non-zeros of a stretch of
// the a-vector side by side — a store and a conditional increment per
// entry, no branch to mispredict on an operand whose zeros fall where a
// ReLU put them — and then takes them four at a time, so that o is
// loaded and stored once per four products.
func gather(o, a []float64, ks, inner int, b []float64) {
	const stretch = 32
	var (
		av [stretch + 3]float64 // a stretch, after up to three left over by the last
		at [stretch + 3]int     // where in b the row opposite av[c] starts
	)
	n, c := len(o), 0
	for k0 := 0; k0 < inner; k0 += stretch {
		for k := k0; k < min(k0+stretch, inner); k++ {
			v := a[k*ks]
			av[c], at[c] = v, k*n
			if v != 0 {
				c++
			}
		}
		g := 0
		for ; g+4 <= c; g += 4 {
			a0, a1, a2, a3 := av[g], av[g+1], av[g+2], av[g+3]
			b0, b1, b2, b3 := b[at[g]:][:n], b[at[g+1]:][:n], b[at[g+2]:][:n], b[at[g+3]:][:n]
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
			av[i-g], at[i-g] = av[i], at[i]
		}
		c -= g
	}
	for i := 0; i < c; i++ {
		axpy(o, av[i], b[at[i]:][:n])
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
