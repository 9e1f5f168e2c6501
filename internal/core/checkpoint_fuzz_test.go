package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgetune/internal/store"
)

// FuzzCheckpointRestore stores arbitrary bytes as the checkpoint of the
// job that wrote the goldens and runs the job. A checkpoint either
// resumes the job or is ignored: the job never panics, fails, or counts
// a negative number of resumed rungs, and one it does not resume from
// leaves its Result exactly a fresh job's.
func FuzzCheckpointRestore(f *testing.F) {
	var rung0 []byte
	for _, name := range []string{"rung0", "bracket-boundary"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_"+name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		if name == "rung0" {
			rung0 = golden
		}
	}
	// The rung-0 golden with its population emptied, its rung moved out
	// of the schedule, and its members' configurations emptied.
	start := bytes.Index(rung0, []byte(`"population":`))
	end := bytes.Index(rung0, []byte(`,"trials":`))
	if start < 0 || end < start || !bytes.Contains(rung0, []byte(`"nextRung":1,`)) {
		f.Fatal("the rung-0 golden has no population or next rung to corrupt")
	}
	withPop := func(pop string) []byte {
		return append(append(append([]byte(nil), rung0[:start]...), `"population":`+pop...), rung0[end:]...)
	}
	f.Add(withPop(`[]`))
	f.Add(bytes.Replace(rung0, []byte(`"nextRung":1,`), []byte(`"nextRung":-7,`), 1))
	f.Add(withPop(`[{"config":{}},{"config":{}}]`))

	var golden tuneProgress
	if err := json.Unmarshal(rung0, &golden); err != nil {
		f.Fatal(err)
	}
	fresh, err := Tune(context.Background(), goldenJob(store.New()))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := store.New()
		if _, err := st.SaveCheckpoint(golden.Key, bytes.Clone(data)); err != nil {
			return // the store keeps only JSON
		}
		res, err := Tune(context.Background(), goldenJob(st))
		if err != nil {
			t.Fatalf("the checkpoint failed the job: %v", err)
		}
		resumed := res.Resilience.ResumedRungs
		if resumed < 0 {
			t.Fatalf("resumed rungs = %d", resumed)
		}
		if resumed == 0 && !reflect.DeepEqual(res, fresh) {
			t.Fatalf("a job that did not resume differs from a fresh job:\n got %s\nwant %s", outcome(t, res), outcome(t, fresh))
		}
	})
}
