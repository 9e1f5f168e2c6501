package core

import (
	"context"
	"reflect"
	"testing"

	"edgetune/internal/device"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

func TestRecommendForDevices(t *testing.T) {
	w := workload.MustNew("IC", 1)
	cfg := search.Config{workload.ParamLayers: 18}
	st := store.New()
	entries, err := RecommendForDevices(context.Background(), w, cfg, device.All(), InferenceServerOptions{
		Trials: 12,
		Store:  st,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	// Sorted by device name and all plausible.
	for i, e := range entries {
		if i > 0 && entries[i-1].Device >= e.Device {
			t.Error("entries not sorted by device")
		}
		if e.Throughput <= 0 || e.Config[workload.ParamInferBatch] < 1 {
			t.Errorf("implausible entry for %s: %+v", e.Device, e)
		}
	}
	// The i7 must out-run the Pi at their respective optima.
	byDev := make(map[string]store.Entry, 3)
	for _, e := range entries {
		byDev[e.Device] = e
	}
	if byDev[device.NameI7].Throughput <= byDev[device.NameRPi3].Throughput {
		t.Error("i7 recommendation not faster than the Pi's")
	}
	if st.Len() != 3 {
		t.Errorf("store has %d entries, want 3", st.Len())
	}
}

func TestRecommendForDevicesReusesStore(t *testing.T) {
	w := workload.MustNew("IC", 1)
	cfg := search.Config{workload.ParamLayers: 34}
	st := store.New()
	opts := InferenceServerOptions{Trials: 8, Store: st, Seed: 5}
	if _, err := RecommendForDevices(context.Background(), w, cfg, device.All(), opts); err != nil {
		t.Fatal(err)
	}
	hits0, _ := st.Stats()
	if _, err := RecommendForDevices(context.Background(), w, cfg, device.All(), opts); err != nil {
		t.Fatal(err)
	}
	hits1, _ := st.Stats()
	if hits1-hits0 != 3 {
		t.Errorf("second call made %d cache hits, want 3", hits1-hits0)
	}
}

// TestReturnedConfigsAreTheCallers: the store hands its own Config maps
// to the server's hits, so whatever leaves for user code is copied
// first. Writing to Tune's recommendation and to RecommendForDevices'
// entries, over one shared store, changes nothing a later hit reads.
func TestReturnedConfigsAreTheCallers(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	opts := planOptions()
	opts.Store = st
	res, err := Tune(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	recOpts := InferenceServerOptions{Trials: 8, Store: st, Seed: 5}
	entries, err := RecommendForDevices(ctx, opts.Workload, res.BestConfig, device.All(), recOpts)
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string]store.Entry{}
	for _, e := range st.Entries() {
		stored[e.Signature+"@"+e.Device] = e
	}
	if _, ok := stored[res.Recommendation.Signature+"@"+res.Recommendation.Device]; !ok {
		t.Fatalf("recommendation %s@%s is not in the store", res.Recommendation.Signature, res.Recommendation.Device)
	}

	scribble := func(cfg search.Config) {
		for k := range cfg {
			cfg[k] = -1
		}
		cfg["scribbled"] = 1
	}
	scribble(res.Recommendation.Config)
	for _, e := range entries {
		scribble(e.Config)
	}

	again, err := RecommendForDevices(ctx, opts.Workload, res.BestConfig, device.All(), recOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range again {
		if want := stored[e.Signature+"@"+e.Device]; !reflect.DeepEqual(e, want) {
			t.Errorf("hit for %s@%s = %+v, want the stored %+v", e.Signature, e.Device, e, want)
		}
	}
}

func TestRecommendForDevicesValidation(t *testing.T) {
	ctx := context.Background()
	w := workload.MustNew("IC", 1)
	good := search.Config{workload.ParamLayers: 18}
	if _, err := RecommendForDevices(ctx, nil, good, device.All(), InferenceServerOptions{}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := RecommendForDevices(ctx, w, good, nil, InferenceServerOptions{}); err == nil {
		t.Error("empty device list accepted")
	}
	if _, err := RecommendForDevices(ctx, w, search.Config{}, device.All(), InferenceServerOptions{}); err == nil {
		t.Error("config without model param accepted")
	}
}
