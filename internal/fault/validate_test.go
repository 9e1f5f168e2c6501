package fault

import (
	"fmt"
	"testing"
)

// edgetuneProbFlags mirrors cmd/edgetune's 19 probability flags — one
// per fault class — so this one table test covers every flag the CLI
// validates through CheckProbs.
var edgetuneProbFlags = []string{
	"-fault-crash",
	"-fault-nan",
	"-fault-straggler",
	"-fault-flap",
	"-fault-brownout",
	"-fault-overload",
	"-fault-store-write",
	"-fault-drop",
	"-fault-disk-torn",
	"-fault-disk-crash",
	"-fault-disk-flip",
	"-fault-disk-full",
	"-fault-disk-slow-fsync",
	"-fault-shard-kill",
	"-fault-partition",
	"-fault-follower-lag",
	"-fault-flash-crowd",
	"-fault-mass-devicefail",
	"-fault-scale-stall",
}

func TestCheckProbsAllFlags(t *testing.T) {
	if len(edgetuneProbFlags) != len(Classes()) {
		t.Fatalf("flag table has %d entries, class catalog has %d", len(edgetuneProbFlags), len(Classes()))
	}
	// Every flag accepts the full closed interval.
	for _, ok := range []float64{0, 0.5, 1} {
		vals := make([]NamedValue, len(edgetuneProbFlags))
		for i, name := range edgetuneProbFlags {
			vals[i] = NamedValue{Name: name, Value: ok}
		}
		if err := CheckProbs(vals); err != nil {
			t.Fatalf("CheckProbs rejected %v: %v", ok, err)
		}
	}
	// Every flag rejects out-of-bounds values, with the pinned error
	// text naming the offending flag.
	for _, flagName := range edgetuneProbFlags {
		for _, bad := range []float64{-0.01, 1.01, 2} {
			vals := []NamedValue{{Name: flagName, Value: bad}}
			err := CheckProbs(vals)
			if err == nil {
				t.Fatalf("CheckProbs accepted %s=%v", flagName, bad)
			}
			want := fmt.Sprintf("%s: probability %v outside [0,1]", flagName, bad)
			if err.Error() != want {
				t.Fatalf("error text %q, want %q", err.Error(), want)
			}
		}
	}
	// The first offender wins when several values are bad, so the CLI
	// reports deterministically.
	err := CheckProbs([]NamedValue{
		{Name: "-fault-crash", Value: 0.5},
		{Name: "-fault-nan", Value: -1},
		{Name: "-fault-flap", Value: 3},
	})
	if err == nil || err.Error() != "-fault-nan: probability -1 outside [0,1]" {
		t.Fatalf("first-offender error = %v", err)
	}
}

func TestCheckNonNegativeScalars(t *testing.T) {
	scalars := []string{
		"-brownout-factor",
		"-max-attempts",
		"-autoscale-min",
		"-autoscale-max",
		"-tenant-rate",
		"-tenant-burst",
		"-cluster",
		"-cluster-kill-rungs",
		"-store-kill-after",
	}
	vals := make([]NamedValue, len(scalars))
	for i, name := range scalars {
		vals[i] = NamedValue{Name: name, Value: float64(i)}
	}
	if err := CheckNonNegative(vals); err != nil {
		t.Fatalf("CheckNonNegative rejected non-negative values: %v", err)
	}
	for _, flagName := range scalars {
		err := CheckNonNegative([]NamedValue{{Name: flagName, Value: -2}})
		if err == nil {
			t.Fatalf("CheckNonNegative accepted %s=-2", flagName)
		}
		want := fmt.Sprintf("%s: negative value %v", flagName, -2.0)
		if err.Error() != want {
			t.Fatalf("error text %q, want %q", err.Error(), want)
		}
	}
}

func TestProbValuesCoversCatalog(t *testing.T) {
	cfg := Config{TrialCrash: 0.25, ScaleStall: 1.5}
	vals := cfg.ProbValues("fault-")
	if len(vals) != len(Classes()) {
		t.Fatalf("ProbValues returned %d entries, want %d", len(vals), len(Classes()))
	}
	if err := CheckProbs(vals); err == nil {
		t.Fatal("CheckProbs missed the out-of-range ScaleStall probability")
	}
	seen := make(map[string]float64, len(vals))
	for _, v := range vals {
		seen[v.Name] = v.Value
	}
	if seen["fault-"+string(TrialCrash)] != 0.25 {
		t.Fatalf("TrialCrash value = %v, want 0.25", seen["fault-"+string(TrialCrash)])
	}
}
