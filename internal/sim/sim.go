// Package sim provides the deterministic simulation substrate used by all
// EdgeTune experiments: seeded random-number helpers, the hash every
// digest and derived seed starts from, and a token bucket that runs on
// ticks instead of the wall clock.
//
// The paper reports tuning runtimes in minutes and energy in kilojoules
// measured on a physical testbed. This reproduction replaces wall-clock
// measurement with simulated durations charged by the performance model,
// so that experiments are deterministic and complete in milliseconds
// while still reporting paper-scale units.
package sim
