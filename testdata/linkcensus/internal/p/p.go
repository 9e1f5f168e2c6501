// Package p plants Mean, Unreached and unreached for the census to report.
package p

// Stats' Mean is linked: main calls it. The function Mean shares its
// name, the collision a rule that matched names let pass.
type Stats struct{ Sum, N float64 }

func (s Stats) Mean() float64 { return s.Sum / s.N }

func Mean(xs []float64) float64 { return xs[0] }

// Unreached is called only by a test.
func Unreached() int { return unreached() }

func unreached() int { return 1 }

// T's String is linked only through fmt's call on the Stringer interface.
type T struct{}

func (T) String() string { return "t" }

// Max is generic, a blind spot of the census: never reported.
func Max[X int | float64](a, b X) X { return max(a, b) }
