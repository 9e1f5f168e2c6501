package core

import (
	"context"
	"fmt"
	"sort"

	"edgetune/internal/device"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// RecommendForDevices tunes the inference configuration of one trained
// architecture for several edge devices — the §1 scenario where "the
// tuned model might be deployed across different edge devices and
// having these configurations suggested can assist users to take the
// most out of their tuned models". Results are cached in (and reused
// from) the shared store, and the per-device tuning runs are pipelined
// through one inference server per device.
func RecommendForDevices(ctx context.Context, w *workload.Workload, cfg search.Config, devices []device.Device, opts InferenceServerOptions) ([]store.Entry, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil workload")
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: no devices to recommend for")
	}
	flops, params, err := w.PaperCost(cfg)
	if err != nil {
		return nil, err
	}
	if opts.Store == nil {
		opts.Store = store.New()
	}
	if opts.Metric == "" {
		opts.Metric = MetricRuntime
	}

	type reply struct {
		idx int
		out InferOutcome
	}
	replies := make(chan reply, len(devices))
	servers := make([]*InferenceServer, 0, len(devices))
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	for i, dev := range devices {
		devOpts := opts
		devOpts.Device = dev
		space, err := w.InferenceSpace(dev)
		if err != nil {
			return nil, err
		}
		devOpts.Space = space
		srv, err := NewInferenceServer(devOpts)
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)

		ch := srv.Submit(ctx, InferRequest{
			Signature:      w.Signature(cfg),
			FLOPsPerSample: flops,
			Params:         params,
		})
		go func(idx int, c <-chan InferOutcome) {
			replies <- reply{idx: idx, out: <-c}
		}(i, ch)
	}

	entries := make([]store.Entry, len(devices))
	for range devices {
		select {
		case r := <-replies:
			if r.out.Err != nil {
				return nil, fmt.Errorf("core: device %s: %w", devices[r.idx].Profile.Name, r.out.Err)
			}
			entries[r.idx] = r.out.Entry
			entries[r.idx].Config = r.out.Entry.Config.Clone() // the caller's own copy
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Device < entries[j].Device })
	return entries, nil
}
