package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Figure 1", "Figure 17", "Table 1", "Table 2",
		"BenchmarkAutoscaleDecision", "BenchmarkNNMiniBatch",
		"BenchmarkWALAppend", "BenchmarkClusterDispatch",
		"BenchmarkFlightRecord", "BenchmarkTPESearch", "BenchmarkTrialRun",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("list missing %q", want)
		}
	}
	if lines := strings.Count(got, "\n"); lines != 28 {
		t.Errorf("list has %d lines, want 28 experiments", lines)
	}
}

func TestRunOnly(t *testing.T) {
	var out bytes.Buffer
	// Table 2 is static and instantaneous.
	if err := run([]string{"-only", "Table 2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "EdgeTune") || strings.Contains(got, "Figure 1 —") {
		t.Errorf("filter leaked other experiments:\n%s", got)
	}
}

func TestRunOnlyNoMatch(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "Figure 99"}, &out); err == nil {
		t.Error("non-matching filter did not error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-frobnicate"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-only", "Table 2", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Experiments []struct {
			ID          string  `json:"id"`
			Title       string  `json:"title"`
			Rows        int     `json:"rows"`
			WallSeconds float64 `json:"wallSeconds"`
		} `json:"experiments"`
		TotalSeconds float64 `json:"totalSeconds"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bench JSON does not parse: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "Table 2" {
		t.Fatalf("experiments = %+v, want exactly Table 2", rep.Experiments)
	}
	if rep.Experiments[0].Rows == 0 || rep.Experiments[0].Title == "" {
		t.Errorf("entry missing rows/title: %+v", rep.Experiments[0])
	}
	if rep.Experiments[0].WallSeconds < 0 {
		t.Errorf("negative wall time: %v", rep.Experiments[0].WallSeconds)
	}
}
