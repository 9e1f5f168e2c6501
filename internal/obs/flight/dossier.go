package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edgetune/internal/obs"
	"edgetune/internal/obs/analyze"
	"edgetune/internal/obs/slo"
	"edgetune/internal/sim"
)

// DossierSchema versions the dossier JSON layout.
const DossierSchema = 1

// Default window bounds around a trigger. The lookback matches the SLO
// evaluator's fast alert window, so an alert dossier carries the error
// events that tripped it; the lookahead captures the immediate
// aftermath (failover catch-up, recovery probes).
const (
	DefaultWindowBefore = 5 * time.Minute
	DefaultWindowAfter  = time.Second
)

// Window is a dossier's simulated-time span.
type Window struct {
	From time.Duration `json:"fromNs"`
	To   time.Duration `json:"toNs"`
}

// Dossier is one self-contained incident artefact. Every slice inside
// is deterministically ordered, so same-seed runs marshal dossiers
// byte-identically.
type Dossier struct {
	Schema  int     `json:"schema"`
	Trigger Trigger `json:"trigger"`
	Window  Window  `json:"window"`
	// Events is the ring's retained events inside the window, sorted
	// by (time, ID).
	Events []Event `json:"events"`
	// Truncated reports that the ring had already overwritten events
	// older than the window start, so the timeline's left edge is the
	// ring's, not the window's.
	Truncated bool `json:"truncated,omitempty"`
	// Dropped is the ring's lifetime overwrite count at build time.
	Dropped uint64 `json:"dropped,omitempty"`
	// Metrics and SLO are the run's registry and objective snapshots.
	Metrics obs.Snapshot `json:"metrics"`
	SLO     slo.Snapshot `json:"slo"`
	// Analysis is the critical-path + queue-decomposition mini-report
	// computed over just the window's trace spans (nil without a
	// tracer).
	Analysis *analyze.Report `json:"analysis,omitempty"`
	// Digest is the FNV-1a digest of the dossier serialised with this
	// field empty; Verify recomputes it.
	Digest string `json:"digest"`
}

// Sources supplies the run-level context a dossier embeds. Dossiers
// are built after the run quiesces, so the snapshots are the final,
// deterministic ones.
type Sources struct {
	Metrics obs.Snapshot
	SLO     slo.Snapshot
	// Trace, when non-nil, feeds the per-window analysis mini-report.
	Trace *obs.Tracer
	// Before/After override the window bounds (0 gets the defaults).
	Before, After time.Duration
}

// Dossiers builds one dossier per fired trigger from the current ring.
// It does not consume the triggers: calling it twice on a quiesced
// recorder yields byte-identical artefacts.
func (r *Recorder) Dossiers(src Sources) []Dossier {
	if r == nil {
		return nil
	}
	before, after := src.Before, src.After
	if before <= 0 {
		before = DefaultWindowBefore
	}
	if after <= 0 {
		after = DefaultWindowAfter
	}
	triggers := r.Triggers()
	if len(triggers) == 0 {
		return nil
	}
	events := r.Events()
	_, _, dropped := r.Stats()

	// Parse the trace once; each dossier filters its own window.
	var spans *analyze.Trace
	if src.Trace != nil {
		var buf bytes.Buffer
		if err := src.Trace.WriteJSONL(&buf); err == nil {
			if tr, err := analyze.ParseJSONL(&buf); err == nil {
				spans = tr
			}
		}
	}

	var oldest time.Duration
	if len(events) > 0 {
		oldest = events[0].Time
	}
	out := make([]Dossier, 0, len(triggers))
	for _, tg := range triggers {
		w := Window{From: tg.At - before, To: tg.At + after}
		if w.From < 0 {
			w.From = 0
		}
		d := Dossier{
			Schema:  DossierSchema,
			Trigger: tg,
			Window:  w,
			Events:  filterEvents(events, w),
			Dropped: dropped,
			Metrics: src.Metrics,
			SLO:     src.SLO,
		}
		if dropped > 0 && oldest > w.From {
			d.Truncated = true
		}
		if spans != nil {
			d.Analysis = analyze.Analyze(windowTrace(spans, w))
		}
		d.Digest = d.computeDigest()
		out = append(out, d)
	}
	return out
}

// filterEvents keeps the (already sorted) events inside the window.
func filterEvents(evs []Event, w Window) []Event {
	out := make([]Event, 0, len(evs))
	for _, ev := range evs {
		if ev.Time >= w.From && ev.Time <= w.To {
			out = append(out, ev)
		}
	}
	return out
}

// windowTrace restricts a parsed trace to spans overlapping the
// window, so the mini-report explains the incident's neighbourhood
// rather than the whole run.
func windowTrace(tr *analyze.Trace, w Window) *analyze.Trace {
	out := &analyze.Trace{Malformed: tr.Malformed, Errors: tr.Errors}
	for _, sp := range tr.Spans {
		if sp.Start <= w.To && sp.End() >= w.From {
			out.Spans = append(out.Spans, sp)
		}
	}
	return out
}

// computeDigest hashes the dossier serialised with an empty digest.
func (d Dossier) computeDigest() string {
	d.Digest = ""
	raw, err := json.Marshal(d)
	if err != nil {
		return "fnv1a:error"
	}
	return fmt.Sprintf("fnv1a:%016x", sim.Hash64(string(raw)))
}

// Verify recomputes the digest; a false return means the artefact was
// edited (or corrupted) after it was written.
func (d Dossier) Verify() (want, got string, ok bool) {
	want = d.Digest
	got = d.computeDigest()
	return want, got, want == got
}

// Filename is the deterministic artefact name for a dossier: its
// trigger sequence and kind (plus an optional source prefix, e.g. the
// owning shard).
func Filename(prefix string, d Dossier) string {
	if prefix != "" {
		prefix += "-"
	}
	return fmt.Sprintf("%sincident-%03d-%s.json", prefix, d.Trigger.Seq, d.Trigger.Kind)
}

// WriteDossiers writes each dossier into dir (created if needed) under
// its deterministic Filename and returns the written paths.
func WriteDossiers(dir, prefix string, ds []Dossier) ([]string, error) {
	if len(ds) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(ds))
	for _, d := range ds {
		raw, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			return paths, err
		}
		raw = append(raw, '\n')
		path := filepath.Join(dir, Filename(prefix, d))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// ReadDossier loads one artefact from disk.
func ReadDossier(path string) (Dossier, error) {
	var d Dossier
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
