// Package device models the edge inference devices of the paper's
// testbed (§2.1): an ARMv7 board, a Raspberry Pi 3 Model B+, and an
// Intel i7 mini-PC. Each device wraps a calibrated CPU performance
// profile; the tuning server *estimates* inference cost on these
// profiles (simulation mode, the design the paper settles on), while a
// perturbed "physical twin" stands in for the real device so the
// estimation error study of Figure 15 can be reproduced.
package device

import (
	"fmt"
	"sort"
	"time"

	"edgetune/internal/perfmodel"
	"edgetune/internal/sim"
)

// Device is an edge inference target.
type Device struct {
	Profile perfmodel.CPUProfile
}

// Names of the built-in testbed devices.
const (
	NameARMv7 = "armv7"
	NameRPi3  = "rpi3b+"
	NameI7    = "i7"
)

// ARMv7 returns the paper's ARMv7 rev 4 board: 4 cores, 4 GB RAM.
func ARMv7() Device {
	return Device{Profile: perfmodel.CPUProfile{
		Name:               NameARMv7,
		MaxCores:           4,
		FlopsPerCorePerGHz: 1.1e9,
		MinFreqGHz:         0.6,
		MaxFreqGHz:         2.0,
		MemBytesPerSec:     3.2e9,
		BytesPerFLOP:       0.42,
		BatchSetupSec:      0.012,
		MemBatchKnee:       28,
		MemPressureFactor:  1.0,
		IdlePowerW:         1.4,
		CorePowerW:         1.1,
	}}
}

// RPi3BPlus returns the paper's Raspberry Pi 3 Model B+: 4 cores, 1 GB
// RAM — the most memory-constrained device, with the earliest batching
// knee.
func RPi3BPlus() Device {
	return Device{Profile: perfmodel.CPUProfile{
		Name:               NameRPi3,
		MaxCores:           4,
		FlopsPerCorePerGHz: 0.7e9,
		MinFreqGHz:         0.6,
		MaxFreqGHz:         1.4,
		MemBytesPerSec:     2.2e9,
		BytesPerFLOP:       0.42,
		BatchSetupSec:      0.015,
		MemBatchKnee:       16,
		MemPressureFactor:  1.4,
		IdlePowerW:         1.9,
		CorePowerW:         1.3,
	}}
}

// I7 returns the paper's Intel i7-7567U mini-PC: the fastest device,
// 16 GB RAM, with the latest batching knee.
func I7() Device {
	return Device{Profile: perfmodel.CPUProfile{
		Name:               NameI7,
		MaxCores:           4,
		FlopsPerCorePerGHz: 4e9,
		MinFreqGHz:         1.2,
		MaxFreqGHz:         3.5,
		MemBytesPerSec:     1.2e10,
		BytesPerFLOP:       0.42,
		BatchSetupSec:      0.005,
		MemBatchKnee:       40,
		MemPressureFactor:  0.8,
		IdlePowerW:         2.0,
		CorePowerW:         3.5,
	}}
}

// ByName looks up a built-in device.
func ByName(name string) (Device, error) {
	switch name {
	case NameARMv7:
		return ARMv7(), nil
	case NameRPi3:
		return RPi3BPlus(), nil
	case NameI7:
		return I7(), nil
	default:
		return Device{}, fmt.Errorf("%w: %q", perfmodel.ErrUnknownDevice, name)
	}
}

// All returns the three testbed devices sorted by name.
func All() []Device {
	devs := []Device{ARMv7(), I7(), RPi3BPlus()}
	sort.Slice(devs, func(i, j int) bool { return devs[i].Profile.Name < devs[j].Profile.Name })
	return devs
}

// Estimate evaluates an inference configuration on the device's
// analytic profile — the tuning server's simulation mode.
func (d Device) Estimate(spec perfmodel.InferSpec) (perfmodel.InferResult, error) {
	return perfmodel.InferenceCost(spec, d.Profile)
}

// DefaultSpec returns a single-sample, all-cores, max-frequency
// configuration for a model, the configuration a user deploying without
// tuning would likely pick.
func (d Device) DefaultSpec(flopsPerSample, params float64) perfmodel.InferSpec {
	return perfmodel.InferSpec{
		FLOPsPerSample: flopsPerSample,
		Params:         params,
		BatchSize:      1,
		Cores:          d.Profile.MaxCores,
		FreqGHz:        d.Profile.MaxFreqGHz,
	}
}

// Perturbed derives this device's "physical twin": the same device with
// every model constant deterministically perturbed by up to ±maxSkew,
// standing in for the gap between the simulation profile and physical
// hardware. Figure 15 measures estimates against such a twin.
func (d Device) Perturbed(seed uint64, maxSkew float64) Device {
	rng := sim.NewRNG(seed ^ sim.Hash64(d.Profile.Name))
	skew := func(v float64) float64 { return v * (1 + rng.Range(-maxSkew, maxSkew)) }
	p := d.Profile
	p.Name = p.Name + "-physical"
	p.FlopsPerCorePerGHz = skew(p.FlopsPerCorePerGHz)
	p.MemBytesPerSec = skew(p.MemBytesPerSec)
	p.BytesPerFLOP = skew(p.BytesPerFLOP)
	p.BatchSetupSec = skew(p.BatchSetupSec)
	p.MemBatchKnee = skew(p.MemBatchKnee)
	p.MemPressureFactor = skew(p.MemPressureFactor)
	p.IdlePowerW = skew(p.IdlePowerW)
	p.CorePowerW = skew(p.CorePowerW)
	return Device{Profile: p}
}

// Measured wraps a device and adds per-measurement noise, emulating the
// run-to-run variance of collecting metrics on physical hardware.
type Measured struct {
	dev   Device
	rng   *sim.RNG
	noise float64
}

// NewMeasured creates a noisy measurement source over dev. noise is the
// relative standard deviation of each reading (e.g. 0.05 for ±5%).
func NewMeasured(dev Device, seed uint64, noise float64) (*Measured, error) {
	if noise < 0 || noise > 0.5 {
		return nil, fmt.Errorf("device: noise %v out of [0, 0.5]", noise)
	}
	return &Measured{dev: dev, rng: sim.NewRNG(seed), noise: noise}, nil
}

// Measure evaluates spec with multiplicative measurement noise applied
// to throughput and energy.
func (m *Measured) Measure(spec perfmodel.InferSpec) (perfmodel.InferResult, error) {
	r, err := m.dev.Estimate(spec)
	if err != nil {
		return r, err
	}
	jitter := func() float64 {
		f := 1 + m.rng.NormFloat64()*m.noise
		if f < 0.1 {
			f = 0.1
		}
		return f
	}
	r.Throughput *= jitter()
	r.EnergyPerSampleJ *= jitter()
	lat := jitter() * float64(r.BatchLatency)
	r.BatchLatency = time.Duration(lat)
	return r, nil
}
