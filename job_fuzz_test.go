package edgetune

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// chaosJobCamel is examples/chaos/job.json with every key spelled the
// way the encoder writes the fault section: the two spellings a job
// file meets.
const chaosJobCamel = `{"workload": "IC", "configs": 4, "rungs": 4, "brackets": 2, "checkpoint": true,
	"faults": {"trialCrash": 0.15, "trialNaN": 0.05, "straggler": 0.2,
		"deviceFlap": 0.1, "storeWrite": 0.1, "droppedReply": 0.15}}`

// FuzzJobJSON feeds arbitrary bytes to the Job decoder the CLI's -job
// runs: it must never panic, and whatever it accepts must survive
// re-encoding unchanged.
func FuzzJobJSON(f *testing.F) {
	chaos, err := os.ReadFile("examples/chaos/job.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chaos)
	f.Add([]byte(chaosJobCamel))
	f.Add([]byte(`{"CustomDevice": {"Name": "board", "Cores": 4}, "Seed": 18446744073709551615}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var job Job
		if json.Unmarshal(data, &job) != nil {
			return
		}
		enc, err := json.Marshal(job)
		if err != nil {
			t.Fatalf("a decoded job does not encode: %v", err)
		}
		var again Job
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("the job's own encoding does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, job) {
			t.Fatalf("round trip changed the job:\n%+v\n%+v", job, again)
		}
	})
}
