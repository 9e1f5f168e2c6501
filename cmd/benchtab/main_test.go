package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Figure 1", "Figure 17", "Table 1", "Table 2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("list missing %q", want)
		}
	}
	if lines := strings.Count(got, "\n"); lines != 18 {
		t.Errorf("list has %d lines, want 18 experiments", lines)
	}
}

func TestRunOnly(t *testing.T) {
	var out bytes.Buffer
	// Table 2 is static and instantaneous.
	if err := run([]string{"-only", "Table 2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "EdgeTune") || strings.Contains(got, "Figure 1 —") {
		t.Errorf("filter leaked other experiments:\n%s", got)
	}
}

// TestRunOutputRepeats: two runs of one simulated table print the same
// bytes, and the wall time each took goes to the timing writer alone.
func TestRunOutputRepeats(t *testing.T) {
	var outs, timings [2]bytes.Buffer
	for i := range outs {
		if err := run([]string{"-only", "Figure 3"}, &outs[i], &timings[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Errorf("two runs differ:\n%s\n---\n%s", &outs[0], &outs[1])
	}
	if got := outs[0].String(); !strings.HasPrefix(got, "Figure 3 —") || strings.Contains(got, "regenerated in") {
		t.Errorf("the table is missing or carries a wall time:\n%s", got)
	}
	if got := timings[0].String(); !strings.HasPrefix(got, "Figure 3: regenerated in ") {
		t.Errorf("timing writer got %q", got)
	}
}

func TestRunOnlyNoMatch(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "Figure 99"}, &out, io.Discard); err == nil {
		t.Error("non-matching filter did not error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-frobnicate"}, &out, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}
