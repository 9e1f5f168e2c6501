package fault

import (
	"fmt"
	"math"
	"testing"
)

// TestCheckProbsAllFlags: every class's probability accepts the closed
// interval and rejects the rest with the pinned error text, under the
// name cmd/edgetune's -faults check gives it and under the name Validate
// uses. TestEveryFaultClassHasOneFlag in cmd/edgetune holds that each
// class is a -faults key.
func TestCheckProbsAllFlags(t *testing.T) {
	var names []string
	for _, class := range Classes() {
		names = append(names, "-faults: "+string(class), "fault: "+string(class))
	}
	// Every name accepts the full closed interval.
	for _, ok := range []float64{0, 0.5, 1} {
		vals := make([]NamedValue, len(names))
		for i, name := range names {
			vals[i] = NamedValue{Name: name, Value: ok}
		}
		if err := CheckProbs(vals); err != nil {
			t.Fatalf("CheckProbs rejected %v: %v", ok, err)
		}
	}
	// Every name rejects out-of-bounds values, with the pinned error text
	// naming the offender.
	for _, name := range names {
		for _, bad := range []float64{-0.01, 1.01, 2} {
			err := CheckProbs([]NamedValue{{Name: name, Value: bad}})
			if err == nil {
				t.Fatalf("CheckProbs accepted %s=%v", name, bad)
			}
			want := fmt.Sprintf("%s: probability %v outside [0,1]", name, bad)
			if err.Error() != want {
				t.Fatalf("error text %q, want %q", err.Error(), want)
			}
		}
	}
	// The first offender wins when several values are bad, so the CLI
	// reports deterministically.
	err := CheckProbs([]NamedValue{
		{Name: "-faults: trial-crash", Value: 0.5},
		{Name: "-faults: trial-nan", Value: -1},
		{Name: "-faults: device-flap", Value: 3},
	})
	if err == nil || err.Error() != "-faults: trial-nan: probability -1 outside [0,1]" {
		t.Fatalf("first-offender error = %v", err)
	}
	// Validate runs the same rule in Classes order: device-flap sorts
	// before trial-nan, so it is the one reported.
	err = Config{TrialNaN: -1, DeviceFlap: 3}.Validate()
	if err == nil || err.Error() != "fault: device-flap: probability 3 outside [0,1]" {
		t.Fatalf("Validate error = %v", err)
	}
}

func TestCheckNonNegativeScalars(t *testing.T) {
	scalars := []string{
		"-faults: brownout-factor",
		"-max-attempts",
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
	cfg := Config{TrialCrash: 0.25, OverloadBurst: 1.5}
	vals := cfg.ProbValues()
	if len(vals) != len(Classes()) {
		t.Fatalf("ProbValues returned %d entries, want %d", len(vals), len(Classes()))
	}
	if err := CheckProbs(vals); err == nil {
		t.Fatal("CheckProbs missed the out-of-range OverloadBurst probability")
	}
	seen := make(map[string]float64, len(vals))
	for _, v := range vals {
		seen[v.Name] = v.Value
	}
	if seen[string(TrialCrash)] != 0.25 {
		t.Fatalf("TrialCrash value = %v, want 0.25", seen[string(TrialCrash)])
	}
}

// TestClassTableRowsAreDistinct: each row of the class table reads its
// own Config field, so setting one class moves exactly that class.
func TestClassTableRowsAreDistinct(t *testing.T) {
	for _, row := range classTable {
		var cfg Config
		*row.prob(&cfg) = 0.5
		var moved []string
		for _, v := range cfg.ProbValues() {
			if v.Value != 0 {
				moved = append(moved, v.Name)
			}
		}
		if len(moved) != 1 || moved[0] != string(row.class) {
			t.Errorf("setting %s moved %v", row.class, moved)
		}
		if cfg.AnyDisk() != row.disk {
			t.Errorf("%s: AnyDisk = %v, want %v", row.class, cfg.AnyDisk(), row.disk)
		}
	}
}

// TestClassScopes pins where each class's decision points are, which
// the chaos fuzzer routes schedules by.
func TestClassScopes(t *testing.T) {
	disk := map[Class]bool{DiskTornWrite: true, DiskCrash: true, DiskBitFlip: true, DiskFull: true, DiskSlowFsync: true}
	cluster := map[Class]bool{ShardKill: true, NetPartition: true, FollowerLag: true}
	for _, class := range append(Classes(), "uniform") {
		if class.Disk() != disk[class] || class.Cluster() != cluster[class] {
			t.Errorf("%s: Disk %v, Cluster %v", class, class.Disk(), class.Cluster())
		}
	}
}

// TestChecksRejectNaN: a NaN compares false with every bound, so each
// check is written to fail it rather than to pass it.
func TestChecksRejectNaN(t *testing.T) {
	nan := math.NaN()
	if CheckProbs([]NamedValue{{Name: "p", Value: nan}}) == nil {
		t.Error("CheckProbs accepted a NaN")
	}
	if CheckNonNegative([]NamedValue{{Name: "v", Value: nan}}) == nil {
		t.Error("CheckNonNegative accepted a NaN")
	}
	for _, c := range []Config{{DiskFull: nan}, {StragglerFactor: nan}, {BrownoutFactor: nan}} {
		if c.Validate() == nil {
			t.Errorf("Validate accepted %+v", c)
		}
	}
}

// TestValidateAllocatesNothing: a job's set-up validates its fault
// config and asks whether anything can fire; neither copies the Config
// to the heap nor builds a list of its values.
func TestValidateAllocatesNothing(t *testing.T) {
	var c Config
	if n := testing.AllocsPerRun(100, func() {
		if c.Validate() != nil || c.Enabled() {
			t.Fatal("the zero Config is valid and fires nothing")
		}
	}); n != 0 {
		t.Errorf("Validate and Enabled on the zero Config allocate %v times, want 0", n)
	}
}
