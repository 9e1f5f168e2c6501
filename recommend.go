package edgetune

import (
	"context"
	"errors"
	"fmt"

	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// RecommendRequest asks for inference deployment recommendations for an
// already-tuned model across several edge devices — the paper's
// multi-device deployment scenario (§1).
type RecommendRequest struct {
	// Workload identifies the model family: IC, SR, NLP, or OD.
	Workload string
	// ModelConfig is the tuned configuration (e.g. a Report.BestConfig).
	ModelConfig map[string]float64
	// Devices lists the target devices; empty means all built-in ones.
	Devices []string
	// Metric is the inference objective (default MetricRuntime).
	Metric Metric
	// Trials is the number of inference configurations explored per
	// device (default 24).
	Trials int
	// StorePath optionally persists results across calls, on the same
	// durable store Job.StorePath opens.
	StorePath string
	// Seed drives determinism.
	Seed uint64
}

// Recommend tunes the inference configuration of a trained model for
// each requested device and returns one recommendation per device,
// sorted by device name.
func Recommend(ctx context.Context, req RecommendRequest) ([]InferenceRecommendation, error) {
	if req.Workload == "" {
		return nil, errors.New("edgetune: recommend needs a workload")
	}
	w, err := workload.New(req.Workload, req.Seed^0x9e3779b9)
	if err != nil {
		return nil, err
	}
	cfg := configFromMap(req.ModelConfig)
	if _, _, err := w.PaperCost(cfg); err != nil {
		return nil, err
	}

	names := req.Devices
	if len(names) == 0 {
		names = Devices()
	}
	devs := make([]device.Device, 0, len(names))
	for _, n := range names {
		d, err := device.ByName(n)
		if err != nil {
			return nil, err
		}
		devs = append(devs, d)
	}

	st := store.New()
	var dur *store.Durable
	if req.StorePath != "" {
		dur, err = store.OpenDurable(store.DurableOptions{SnapshotPath: req.StorePath})
		if err != nil {
			return nil, fmt.Errorf("edgetune: open durable store: %w", err)
		}
		defer dur.Close()
		st = dur.Store()
	}

	entries, err := core.RecommendForDevices(ctx, w, cfg, devs, core.InferenceServerOptions{
		Metric: core.Metric(req.Metric),
		Trials: req.Trials,
		Store:  st,
		Seed:   req.Seed,
	})
	if err != nil {
		return nil, err
	}
	if dur != nil {
		if err := dur.Close(); err != nil {
			return nil, fmt.Errorf("edgetune: persist store: %w", err)
		}
	}

	recs := make([]InferenceRecommendation, len(entries))
	for i, e := range entries {
		recs[i] = recommendationOf(e)
	}
	return recs, nil
}
