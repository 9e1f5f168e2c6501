package edgetune

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"edgetune/internal/testutil"
	"edgetune/internal/trial"
)

// TestSameBytesAtEveryCoreCount: GOMAXPROCS decides how many helpers
// train a rung's registered trials side by side and nothing else. A
// seeded default IC job, and a seeded NLP job with faults, checkpoints,
// the autoscaler and the flight recorder on, produce the same marshalled Report, the
// same trace file and the same incident dossiers on 1, 2, 4 and 8
// cores. (core's TestCheckpointBytesGolden holds the checkpoint bytes to
// their goldens at the same four counts.)
func TestSameBytesAtEveryCoreCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a default job four times")
	}
	defer testutil.CheckGoroutineLeak(t, 4)
	jobs := map[string]Job{
		"default IC": {Workload: "IC", Seed: 5},
		// The mass device failure under the autoscaler is what cuts
		// dossiers here (the failure itself, then the ladder engaging).
		"checkpointed NLP": {Workload: "NLP", Configs: 4, Rungs: 4, Brackets: 2, Seed: 42, Checkpoint: true, Flight: true, Autoscale: true,
			Faults: FaultConfig{TrialCrash: 0.15, TrialNaN: 0.05, Straggler: 0.20, DeviceFlap: 0.10, StoreWrite: 0.10, DroppedReply: 0.15, MassDeviceFail: 1}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, job := range jobs {
		var want map[string][]byte
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			dir := t.TempDir()
			job.TracePath = filepath.Join(dir, "trace.jsonl")
			if job.Flight {
				job.IncidentsDir = filepath.Join(dir, "incidents")
			}
			rep, err := Tune(context.Background(), job)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if idle := trial.IdleHelpers(); idle != procs-1 {
				t.Errorf("%s: %d helpers idle at GOMAXPROCS %d after Tune returned", name, idle, procs)
			}
			got := map[string][]byte{}
			for i := range rep.Incidents {
				inc := &rep.Incidents[i]
				if got[fmt.Sprintf("dossier %d (%s)", i, inc.Trigger)], err = os.ReadFile(inc.Path); err != nil {
					t.Fatal(err)
				}
				inc.Path = "" // the one field that names the temporary directory
			}
			if got["report"], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
			if got["trace"], err = os.ReadFile(job.TracePath); err != nil {
				t.Fatal(err)
			}
			if job.Flight && len(rep.Incidents) == 0 {
				t.Errorf("%s fired no flight trigger: the dossier comparison is vacuous", name)
			}
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d artefacts at GOMAXPROCS %d, %d at 1", name, len(got), procs, len(want))
			}
			for k, w := range want {
				if !bytes.Equal(got[k], w) {
					t.Errorf("%s: %s at GOMAXPROCS %d differs from GOMAXPROCS 1 (%d vs %d bytes)", name, k, procs, len(got[k]), len(w))
				}
			}
		}
	}
}
