// Package fault is a seeded, deterministic fault-injection layer for
// chaos-testing the tuning servers. Each injection decision is a pure
// function of (seed, class, site, attempt): the tuple is hashed into a
// fresh internal/sim RNG, so decisions are independent of goroutine
// scheduling and a run replays exactly from its seed — the property the
// deterministic-replay tests rely on. NewInjector returns the nil
// *Injector for a config that can fire nothing, and a nil *Injector
// injects nothing, so production paths carry the hooks at no cost.
package fault

import (
	"fmt"

	"edgetune/internal/counters"
	"edgetune/internal/sim"
)

// Class names one injectable failure mode.
type Class string

// The fault classes observed on real edge fleets (flapping boards,
// diverging SGD runs, stragglers, lossy links) that the chaos suite
// drives through the tuner.
const (
	// TrialCrash kills a training trial partway through (spot
	// preemption, OOM, worker loss). The crashed attempt still charges
	// a deterministic fraction of its training cost.
	TrialCrash Class = "trial-crash"
	// TrialNaN makes a training run diverge after consuming its full
	// budget (bad hyperparameter/seed interaction).
	TrialNaN Class = "trial-nan"
	// Straggler slows a trial down without failing it.
	Straggler Class = "straggler"
	// DeviceFlap makes the emulated edge device unreachable for one
	// inference-tuning attempt.
	DeviceFlap Class = "device-flap"
	// StoreWrite fails a historical-store write.
	StoreWrite Class = "store-write"
	// DroppedReply loses an inference server reply after the work was
	// done (the result is stored but the requester never hears back).
	DroppedReply Class = "dropped-reply"
	// DeviceBrownout slows one device's inference-tuning attempt down
	// without failing it (thermal throttling, shared-bus contention) —
	// the health score must notice and steer later requests away before
	// the breaker ever would.
	DeviceBrownout Class = "device-brownout"
	// OverloadBurst sheds one inference submission at the admission gate
	// (a synthetic traffic spike), exercising the typed ErrOverloaded
	// path deterministically.
	OverloadBurst Class = "overload-burst"
	// DiskTornWrite cuts one filesystem write short (power loss mid
	// append): a prefix of the data lands on disk and the write reports
	// failure.
	DiskTornWrite Class = "disk-torn-write"
	// DiskCrash writes a partial record and then kills the emulated disk
	// for good — every later operation on that filesystem fails, the
	// file-level equivalent of yanking the power cord.
	DiskCrash Class = "disk-crash"
	// DiskBitFlip silently corrupts one byte of a write that then
	// reports success (flash bit rot); only checksum verification at
	// recovery can catch it.
	DiskBitFlip Class = "disk-bit-flip"
	// DiskFull fails a write with ENOSPC, leaving nothing on disk.
	DiskFull Class = "disk-full"
	// DiskSlowFsync makes one fsync slow (counted, not failed) — flash
	// garbage collection stalling the write path.
	DiskSlowFsync Class = "disk-slow-fsync"
	// ShardKill crashes one cluster shard's primary node at a rung
	// boundary mid-job (node panic, OOM-kill); the dispatcher must fail
	// over to the shard's follower and resume from the replicated WAL.
	ShardKill Class = "shard-kill"
	// NetPartition drops one WAL-shipping frame on the primary→follower
	// link (lossy edge uplink): the follower misses that frame and the
	// failover path must cope with the resulting hole.
	NetPartition Class = "net-partition"
	// FollowerLag delays WAL frames in flight to the follower (slow
	// replica): frames queue in order and land late, so a failover first
	// drains the lagged backlog (catch-up replay) before promotion.
	FollowerLag Class = "follower-lag"
)

// classRow is one fault class: its name and where its decision points
// are. Its probability is the Config field prob returns.
type classRow struct {
	class   Class
	disk    bool // consulted by a fault.FS, so only under a durable store
	cluster bool // consulted by the sharded dispatcher only
}

// classTable is the fault model: every class, once, in alphabetical
// order — the order Classes returns and Validate reports the first
// offending class in.
var classTable = [...]classRow{
	{class: DeviceBrownout},
	{class: DeviceFlap},
	{class: DiskBitFlip, disk: true},
	{class: DiskCrash, disk: true},
	{class: DiskFull, disk: true},
	{class: DiskSlowFsync, disk: true},
	{class: DiskTornWrite, disk: true},
	{class: DroppedReply},
	{class: FollowerLag, cluster: true},
	{class: NetPartition, cluster: true},
	{class: OverloadBurst},
	{class: ShardKill, cluster: true},
	{class: StoreWrite},
	{class: Straggler},
	{class: TrialCrash},
	{class: TrialNaN},
}

// prob is the Config field holding row's class's probability, nil for a
// name outside the table. It is a switch, not a function value in each
// row, so that the compiler sees c go no further than the result: a
// Config read through it stays where it is, never moved to the heap.
func (row classRow) prob(c *Config) *float64 {
	switch row.class {
	case DeviceBrownout:
		return &c.DeviceBrownout
	case DeviceFlap:
		return &c.DeviceFlap
	case DiskBitFlip:
		return &c.DiskBitFlip
	case DiskCrash:
		return &c.DiskCrash
	case DiskFull:
		return &c.DiskFull
	case DiskSlowFsync:
		return &c.DiskSlowFsync
	case DiskTornWrite:
		return &c.DiskTornWrite
	case DroppedReply:
		return &c.DroppedReply
	case FollowerLag:
		return &c.FollowerLag
	case NetPartition:
		return &c.NetPartition
	case OverloadBurst:
		return &c.OverloadBurst
	case ShardKill:
		return &c.ShardKill
	case StoreWrite:
		return &c.StoreWrite
	case Straggler:
		return &c.Straggler
	case TrialCrash:
		return &c.TrialCrash
	case TrialNaN:
		return &c.TrialNaN
	}
	return nil
}

// Classes lists every fault class in deterministic order.
func Classes() []Class {
	out := make([]Class, len(classTable))
	for i, row := range classTable {
		out[i] = row.class
	}
	return out
}

// rowOf looks class up in the table; a name outside it gets the zero
// row, whose class is empty.
func rowOf(class Class) classRow {
	for _, row := range classTable {
		if row.class == class {
			return row
		}
	}
	return classRow{}
}

// Disk reports whether c is a disk class: a fault.FS consults it, so it
// has decision points only under a durable store.
func (c Class) Disk() bool { return rowOf(c).disk }

// Cluster reports whether c is a cluster class: only the sharded
// dispatcher consults it, so it is inert in a single-node job.
func (c Class) Cluster() bool { return rowOf(c).cluster }

// Config holds per-class injection probabilities in [0, 1]; zero
// disables a class. Adding a class is its const, its field here, its
// row of classTable and its case in classRow.prob.
type Config struct {
	// TrialCrash, TrialNaN, and Straggler fire per training-trial
	// attempt.
	TrialCrash float64 `json:"trialCrash,omitempty"`
	TrialNaN   float64 `json:"trialNaN,omitempty"`
	Straggler  float64 `json:"straggler,omitempty"`
	// StragglerFactor is the maximum slowdown of a straggling trial
	// (default 4; the actual factor is drawn in [1, StragglerFactor]).
	StragglerFactor float64 `json:"stragglerFactor,omitempty"`
	// DeviceFlap and StoreWrite fire per inference-tuning attempt;
	// DroppedReply fires per successfully tuned request.
	DeviceFlap   float64 `json:"deviceFlap,omitempty"`
	StoreWrite   float64 `json:"storeWrite,omitempty"`
	DroppedReply float64 `json:"droppedReply,omitempty"`
	// DeviceBrownout fires per inference-tuning attempt and inflates the
	// simulated serving cost without failing the attempt.
	DeviceBrownout float64 `json:"deviceBrownout,omitempty"`
	// BrownoutFactor is the maximum slowdown of a browned-out attempt
	// (default 6; the actual factor is drawn in [1, BrownoutFactor]).
	BrownoutFactor float64 `json:"brownoutFactor,omitempty"`
	// OverloadBurst fires per inference submission at the admission
	// gate, shedding the request with ErrOverloaded.
	OverloadBurst float64 `json:"overloadBurst,omitempty"`
	// The disk classes fire per write of a fault.FS, keyed by the bytes
	// written, and per write an fsync covers: DiskTornWrite and DiskFull
	// fail individual writes (partial data and ENOSPC respectively),
	// DiskCrash kills the filesystem for the rest of the run,
	// DiskBitFlip silently corrupts one written byte, DiskSlowFsync
	// records a stalled fsync without failing it. A job meets them
	// through its durable store (a StorePath).
	DiskTornWrite float64 `json:"diskTornWrite,omitempty"`
	DiskCrash     float64 `json:"diskCrash,omitempty"`
	DiskBitFlip   float64 `json:"diskBitFlip,omitempty"`
	DiskFull      float64 `json:"diskFull,omitempty"`
	DiskSlowFsync float64 `json:"diskSlowFsync,omitempty"`
	// The cluster classes fire on the sharded dispatcher: ShardKill per
	// rung boundary of a job on a shard whose follower is still standing,
	// NetPartition and FollowerLag per WAL frame shipped from a shard's
	// primary to its follower. They are inert in a single-node job.
	ShardKill    float64 `json:"shardKill,omitempty"`
	NetPartition float64 `json:"netPartition,omitempty"`
	FollowerLag  float64 `json:"followerLag,omitempty"`

	// Plan, when non-nil, schedules exact fault events on top of the
	// probabilistic classes: a decision whose (class, site, attempt)
	// tuple the plan holds fires at the scheduled intensity even when
	// the class probability is zero. The chaos fuzzer drives its
	// machine-generated schedules through this field. Excluded from
	// JSON so persisted configs stay purely probabilistic.
	Plan *Plan `json:"-"`
	// Observe, when non-nil, is called with every injection decision
	// (fired or not) — the fuzzer's discovery hook. Excluded from JSON
	// for the same reason as Plan.
	Observe Observer `json:"-"`
}

// Enabled reports whether any class has a non-zero probability or a
// plan schedules at least one event.
func (c Config) Enabled() bool {
	for _, row := range classTable {
		if *row.prob(&c) > 0 {
			return true
		}
	}
	return c.Plan.Len() > 0
}

// AnyDisk reports whether any disk class — the ones a fault.FS
// consults — has a non-zero probability.
func (c Config) AnyDisk() bool {
	for _, row := range classTable {
		if row.disk && *row.prob(&c) > 0 {
			return true
		}
	}
	return false
}

// Validate checks all probabilities and the two slowdown factors, each
// 0 (the default) or at least 1. A NaN fails every check.
func (c Config) Validate() error {
	for _, row := range classTable {
		if err := checkProb(string(row.class), *row.prob(&c)); err != nil {
			return fmt.Errorf("fault: %w", err)
		}
	}
	if f := c.StragglerFactor; !(f == 0 || f >= 1) {
		return fmt.Errorf("fault: straggler factor %v must be >= 1", f)
	}
	if f := c.BrownoutFactor; !(f == 0 || f >= 1) {
		return fmt.Errorf("fault: brownout factor %v must be >= 1", f)
	}
	return nil
}

// prob is class's probability (0 for a name outside the table). It
// takes a pointer so Should reads the injector's copy in place.
func (c *Config) prob(class Class) float64 {
	if p := (classRow{class: class}).prob(c); p != nil {
		return *p
	}
	return 0
}

// Error is an injected fault, distinguishable from organic failures so
// the resilience layer retries only what is transient by construction.
type Error struct {
	Class Class
	Site  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", e.Class, e.Site)
}

// IsFault reports whether err is (or wraps) an injected fault.
func IsFault(err error) bool { return asFault(err) != nil }

// ClassOf returns the fault class of an injected fault ("" otherwise).
func ClassOf(err error) Class {
	if fe := asFault(err); fe != nil {
		return fe.Class
	}
	return ""
}

// asFault is errors.As for *Error: the first injected fault in err's
// tree, depth first, or nil. It walks the tree itself because the
// target errors.As is handed escapes, and the serving path asks this of
// every failed request.
func asFault(err error) *Error {
	for err != nil {
		if fe, ok := err.(*Error); ok {
			return fe
		}
		if x, ok := err.(interface{ As(any) bool }); ok {
			var fe *Error // escapes, on this path only
			if x.As(&fe) {
				return fe
			}
		}
		switch e := err.(type) {
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			for _, err := range e.Unwrap() {
				if fe := asFault(err); fe != nil {
					return fe
				}
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// Injector makes the injection decisions. A nil Injector never fires.
type Injector struct {
	cfg  Config
	seed uint64
	rec  *counters.Resilience
}

// NewInjector validates cfg and returns an injector whose decisions
// derive from seed. Fired faults are recorded into rec (which may be
// nil). A cfg that sets no probability, plan or observer gets the nil
// injector: it decides the same — nothing ever fires — without a site
// string being built per decision point for nobody to read. An empty
// plan schedules nothing, so it keeps no injector either.
func NewInjector(cfg Config, seed uint64, rec *counters.Resilience) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() && cfg.Observe == nil {
		return nil, nil
	}
	if cfg.StragglerFactor == 0 {
		cfg.StragglerFactor = 4
	}
	if cfg.BrownoutFactor == 0 {
		cfg.BrownoutFactor = 6
	}
	return &Injector{cfg: cfg, seed: seed, rec: rec}, nil
}

// rng derives the decision stream for one (class, site, attempt) tuple.
func (in *Injector) rng(class Class, site string, attempt int) *sim.RNG {
	h := in.seed ^ 0x243f6a8885a308d3 // decorrelate from other seed users
	h = fnvMix(h, string(class))
	h = fnvMix(h, site)
	h ^= uint64(attempt) * 0x9e3779b97f4a7c15
	return sim.NewRNG(h)
}

// Should reports whether a fault of class fires at site on the given
// attempt, recording it when it does. A scheduled plan event fires
// independently of the class probability; either way the decision is a
// pure function of (seed, class, site, attempt), and any configured
// observer sees every decision — the plan and observer checks run
// before the zero-probability early-out so discovery passes (all
// probabilities zero) still enumerate every decision point.
func (in *Injector) Should(class Class, site string, attempt int) bool {
	if in == nil {
		return false
	}
	fired := false
	if intensity, ok := in.cfg.Plan.intensity(class, site, attempt); ok {
		fired = intensity >= 1 || in.rng(class, site, attempt).Float64() < intensity
	}
	if !fired {
		if p := in.cfg.prob(class); p > 0 && in.rng(class, site, attempt).Float64() < p {
			fired = true
		}
	}
	if obs := in.cfg.Observe; obs != nil {
		obs(class, site, attempt, fired)
	}
	if !fired {
		return false
	}
	in.rec.RecordFault(string(class))
	return true
}

// Fail returns an injected *Error when the fault fires, nil otherwise.
func (in *Injector) Fail(class Class, site string, attempt int) error {
	if !in.Should(class, site, attempt) {
		return nil
	}
	return &Error{Class: class, Site: site}
}

// Uniform returns a deterministic value in [0, 1) for site/attempt,
// used for crash fractions and backoff jitter so those are replayable
// too. A nil injector returns 0.5.
func (in *Injector) Uniform(site string, attempt int) float64 {
	if in == nil {
		return 0.5
	}
	r := in.rng("uniform", site, attempt)
	r.Uint64() // skip the decision draw so Uniform decorrelates from Should
	return r.Float64()
}

// StragglerFactor returns the slowdown multiplier for a straggling
// trial at site/attempt, in [1, cfg.StragglerFactor].
func (in *Injector) StragglerFactor(site string, attempt int) float64 {
	if in == nil {
		return 1
	}
	max := in.cfg.StragglerFactor
	if max <= 1 {
		return 1
	}
	return 1 + (max-1)*in.Uniform("straggle/"+site, attempt)
}

// BrownoutFactor returns the slowdown multiplier for a browned-out
// device attempt at site/attempt, in [1, cfg.BrownoutFactor].
func (in *Injector) BrownoutFactor(site string, attempt int) float64 {
	if in == nil {
		return 1
	}
	max := in.cfg.BrownoutFactor
	if max <= 1 {
		return 1
	}
	return 1 + (max-1)*in.Uniform("brownout/"+site, attempt)
}

// fnvMix folds s into h with FNV-1a steps.
func fnvMix(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= 0xff
	h *= 1099511628211
	return h
}
