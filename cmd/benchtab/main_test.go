package main

import (
	"bytes"
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
		"BenchmarkAutoscaleDecision",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("list missing %q", want)
		}
	}
	if lines := strings.Count(got, "\n"); lines != 19 {
		t.Errorf("list has %d lines, want 19 experiments", lines)
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
