package core

import (
	"fmt"
	"sync"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
)

// scaler binds the autoscale controller to the inference server: it is
// ticked once per submission, in submission order, with signals
// stamped deterministically at the request's simulated time, and
// applies the controller's decisions to the device pool. The
// flash-crowd fault class feeds it phantom load; the mass-device-fail
// class collapses the pool under it.
type scaler struct {
	mu   sync.Mutex
	ctl  *autoscale.Controller
	base device.Device // replica template: the server's Device

	// crowd is the phantom flash-crowd load added to the in-system
	// signal; it decays by decayStep per tick and is bounded by
	// crowdCap.
	crowd, crowdCap, decayStep int

	massFailed bool // MassDeviceFail fires at most once per run
	replicaSeq int  // names autoscaled replicas <base>-as<N>

	// Registry instruments (nil when metrics are off).
	gReplicas *obs.Gauge
	cUps      *obs.Counter
	cDowns    *obs.Counter
	cStalls   *obs.Counter
	cCrowd    *obs.Counter
}

func newScaler(cfg autoscale.Config, opts *InferenceServerOptions) (*scaler, error) {
	ctl, err := autoscale.New(cfg)
	if err != nil {
		return nil, err
	}
	limit := opts.QueueLimit
	sc := &scaler{
		ctl:       ctl,
		base:      opts.Device,
		crowdCap:  3 * limit,
		decayStep: max(1, limit/4),
	}
	if reg := opts.Recorder.Registry(); reg != nil {
		sc.gReplicas = reg.Gauge("autoscale.replicas")
		sc.cUps = reg.Counter("autoscale.scale-ups")
		sc.cDowns = reg.Counter("autoscale.scale-downs")
		sc.cStalls = reg.Counter("autoscale.stalls")
		sc.cCrowd = reg.Counter("autoscale.flash-crowds")
	}
	return sc, nil
}

// AutoscaleReport snapshots the autoscaler's run totals, or nil when
// autoscaling is disabled. Safe to call after Close.
func (s *InferenceServer) AutoscaleReport() *autoscale.Report {
	if s.scale == nil {
		return nil
	}
	rep := s.scale.ctl.Report()
	return &rep
}

// autoscaleTick runs the control loop for one submission: fire
// pool-level faults, stamp deterministic signals at the request's
// simulated time, record the capacity SLO event, and apply whatever
// the controller decides. Submit calls it once per submission, after
// taking the sequence number; for an ordered submission stream the
// tick order — and with it every decision — is deterministic.
func (s *InferenceServer) autoscaleTick(req InferRequest, seq int) {
	sc := s.scale
	if sc == nil {
		return
	}
	at := req.SubmitTime
	sc.mu.Lock()

	// Mass device failure: fires at most once per run, quarantining the
	// whole active pool in one blow. Recovery comes from health probes
	// on the quarantined devices plus autoscaled replacement replicas.
	if !sc.massFailed && s.opts.Fault.Should(fault.MassDeviceFail, fmt.Sprintf("pool#%d", seq), 0) {
		sc.massFailed = true
		hit := s.pool.massFail()
		if t := s.opts.Trace; t != nil {
			sp := t.Root(obs.TrackAutoscale, "mass-device-fail", uint64(seq), at,
				obs.Int("devices", int64(hit)))
			sp.End(at)
		}
		s.opts.Flight.Record(at, flight.KindHealth, "pool", "mass-fail", int64(hit), 0)
		s.opts.Flight.Trigger(flight.TriggerMassFail, at, "pool")
	}

	// Flash crowd: a phantom arrival surge inflates the in-system
	// signal; it decays linearly at the end of every tick.
	if s.opts.Fault.Should(fault.FlashCrowd, fmt.Sprintf("crowd#%d", seq), 0) {
		sc.crowd += s.opts.QueueLimit
		if sc.crowd > sc.crowdCap {
			sc.crowd = sc.crowdCap
		}
		sc.cCrowd.Inc()
	}

	active, healthy := s.pool.counts(at)
	inSystem := s.adm.inSystem() + sc.crowd
	sig := autoscale.Signals{
		At:          at,
		InSystem:    inSystem,
		QueuedAhead: s.adm.queuedLen() + sc.crowd,
		QueueLimit:  s.opts.QueueLimit,
		Replicas:    active,
		Healthy:     healthy,
		Good:        healthy > 0 && inSystem < s.opts.QueueLimit,
	}
	s.sloCapacity.Record(at, sig.Good)

	if d, ok := sc.ctl.Evaluate(sig); ok {
		s.applyScaleDecision(d, at)
		active, _ = s.pool.counts(at)
	}

	sc.crowd -= sc.decayStep
	if sc.crowd < 0 {
		sc.crowd = 0
	}
	sc.gReplicas.Set(float64(active))
	sc.mu.Unlock()
}

// applyScaleDecision turns one controller decision into its effect on
// the pool. Callers hold sc.mu.
func (s *InferenceServer) applyScaleDecision(d autoscale.Decision, at time.Duration) {
	sc := s.scale
	switch {
	case d.Delta > 0:
		sc.cUps.Inc()
		if s.opts.Fault.Should(fault.ScaleStall, fmt.Sprintf("scaleup#%d", d.Tick), 0) {
			// The scale-up never materialises: the warm-up cost is
			// already charged, but no replica joins. The controller sees
			// the unchanged replica count next tick and tries again.
			sc.cStalls.Inc()
		} else {
			sc.replicaSeq++
			replica := sc.base
			replica.Profile.Name = fmt.Sprintf("%s-as%d", sc.base.Profile.Name, sc.replicaSeq)
			s.pool.addReplica(replica, at+d.WarmupTime)
		}
	default:
		if _, ok := s.pool.retireNewest(); ok {
			sc.cDowns.Inc()
		}
	}

	if t := s.opts.Trace; t != nil {
		sp := t.Root(obs.TrackAutoscale, "scale-event", uint64(d.Tick), at,
			obs.Int("delta", int64(d.Delta)),
			obs.Int("replicas", int64(d.Replicas)),
			obs.Str("reason", d.Reason))
		sp.End(at + d.WarmupTime)
	}
	s.opts.Flight.Record(at, flight.KindAutoscale, d.Reason, "", int64(d.Delta), int64(d.Replicas))
}
