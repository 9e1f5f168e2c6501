package core

import (
	"context"
	"time"

	"edgetune/internal/obs"
	"edgetune/internal/obs/prof"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/tensor"
	"edgetune/internal/workload"

	"edgetune/internal/nn"
)

// tenantLabel maps a tenant/client name to its pprof label value; the
// empty tenant profiles as "default" so every sample stays sliceable.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// priorityLabel renders a serving priority for pprof labels.
func priorityLabel(p Priority) string {
	if p == PriorityBackground {
		return "background"
	}
	return "critical"
}

// collectProfile measures the job's hot-loop stages with allocation
// probes, publishes them as gauges on reg, and returns them for
// Result.Profile. Every probe runs on self-contained throwaway state (a
// private store, server, tracer, and a fixed tiny model), so measuring
// never perturbs the job's own metrics, SLO events, or traces.
func collectProfile(opts Options, reg *obs.Registry) []prof.Probe {
	const runs = 8
	var probes []prof.Probe
	add := func(p prof.Probe) {
		p.Publish(reg)
		probes = append(probes, p)
	}

	// Training-side mini-batch step: a fixed 18-layer IC model at batch
	// 8, independent of the job's workload so the stage is comparable
	// across jobs.
	rng := sim.NewRNG(opts.Seed + 1)
	if w, err := workload.New("IC", opts.Seed+1); err == nil {
		if net, err := w.BuildModel(search.Config{workload.ParamLayers: 18}, rng); err == nil {
			x := tensor.Randn(8, 24, 1, rng)
			labels := make([]int, 8)
			for i := range labels {
				labels[i] = rng.Intn(10)
			}
			if opt, err := nn.NewSGD(0.01, 0.9, 0); err == nil {
				add(prof.Measure("nn.minibatch-step", runs, func() {
					_, _ = net.TrainStep(opt, x, labels) // labels are in range by construction
				}))
			}
		}
	}

	// Perfmodel evaluation on the job's own device profile.
	spec := opts.Device.DefaultSpec(5.6e8, 11e6)
	add(prof.Measure("perfmodel.infer-cost", runs, func() {
		opts.Device.Estimate(spec)
	}))

	// Trace emission: root + child + attrs, the per-trial span shape.
	tracer := obs.NewTracer()
	var seq uint64
	add(prof.Measure("trace.emit", runs, func() {
		seq++
		root := tracer.Root(0, "prof-probe", seq, 0)
		sp := root.Child("stage", 0, obs.Int("i", int64(seq)))
		sp.End(time.Duration(seq))
		root.End(time.Duration(seq))
	}))

	// In-memory store write, the body of every recommendation persist.
	st := store.New()
	entry := store.Entry{Signature: "prof-probe", Device: opts.Device.Profile.Name,
		Config: search.Config{"batch": 16}, Throughput: 1}
	add(prof.Measure("store.put", runs, func() {
		st.Put(entry)
	}))

	// Admission + serve on the cache-hit path: a private server whose
	// store is pre-warmed, so Submit resolves synchronously without
	// touching a device. Covers intake, admission, and delivery.
	if opts.Workload != nil {
		if space, err := opts.Workload.InferenceSpace(opts.Device); err == nil {
			probeStore := store.New()
			probeStore.Put(store.Entry{Signature: "prof-probe",
				Device: opts.Device.Profile.Name, Config: search.Config{"batch": 16}})
			srv, err := NewInferenceServer(InferenceServerOptions{
				Device: opts.Device,
				Space:  space,
				Store:  probeStore,
				Seed:   opts.Seed,
			})
			if err == nil {
				ctx := context.Background()
				add(prof.Measure("serve.cache-hit", runs, func() {
					<-srv.Submit(ctx, InferRequest{
						Signature:      "prof-probe",
						FLOPsPerSample: 5.6e8,
						Params:         11e6,
					})
				}))
				srv.Close()
			}
		}
	}
	return probes
}
