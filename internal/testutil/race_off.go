//go:build !race

package testutil

// RaceEnabled reports whether the binary was built with -race. Suites
// skip what the detector makes too slow, or what it makes allocate.
const RaceEnabled = false
