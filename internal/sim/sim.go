// Package sim provides the deterministic simulation substrate used by all
// EdgeTune experiments: seeded random-number helpers and the hash every
// digest and derived seed starts from.
//
// The paper reports tuning runtimes in minutes and energy in kilojoules
// measured on a physical testbed. This reproduction replaces wall-clock
// measurement with simulated durations charged by the performance model,
// so that experiments are deterministic and complete in milliseconds
// while still reporting paper-scale units.
package sim
