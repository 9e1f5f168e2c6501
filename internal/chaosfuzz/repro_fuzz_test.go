package chaosfuzz

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReproJSON feeds arbitrary bytes to the repro decoder `tracetool
// fuzz replay` runs: ReadRepro must never panic, and a repro it accepts
// must survive MarshalRepro and a second ReadRepro unchanged. The seeds
// are the committed corpus schedules.
func FuzzReproJSON(f *testing.F) {
	seeds, err := filepath.Glob("../../fuzz/corpus/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no corpus schedules under fuzz/corpus")
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// One file per process: the fuzz function runs its inputs one at a
	// time.
	path := filepath.Join(f.TempDir(), "repro.json")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := ReadRepro(path)
		if err != nil {
			return
		}
		enc, err := MarshalRepro(r)
		if err != nil {
			t.Fatalf("an accepted repro does not encode: %v", err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRepro(path)
		if err != nil {
			t.Fatalf("the repro's own encoding does not load: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip changed the repro:\n%+v\n%+v", r, again)
		}
	})
}
