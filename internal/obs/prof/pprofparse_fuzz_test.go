package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"
)

// gzipped wraps b the way runtime/pprof wraps a profile.
func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

// seedProfile is a CPU profile taken under Do's labels whose string
// table holds the label keys; the busy loop runs longer until a sample
// lands inside it. It is nil when CPU profiling is already in use.
func seedProfile(f *testing.F) []byte {
	var missing []string
	for d := 100 * time.Millisecond; d <= 2*time.Second; d *= 2 {
		profile, err := labelledCPUProfile(d, KeyTenant, "fuzz-tenant", KeyRung, "3")
		if err != nil {
			f.Logf("CPU profiling unavailable, no profile seed: %v", err)
			return nil
		}
		table, err := ProfileStrings(profile)
		if err != nil {
			f.Fatal(err)
		}
		if missing = MissingStrings(table, []string{KeyTenant, KeyRung}); len(missing) == 0 {
			return profile
		}
	}
	f.Fatalf("labelled CPU profiles of up to 1.6 s lack the label keys %q", missing)
	return nil
}

// FuzzProfileStrings: `tracetool profile check` reads whatever file it
// is handed. On any bytes neither ProfileStrings nor LabelValues may
// panic, and gzip is only a wrapping: bytes without the gzip magic read
// the same gzipped as bare, string table, label counts and error alike.
func FuzzProfileStrings(f *testing.F) {
	// A profile of one sample, 5 counts through main.burn labelled
	// rung=7: every message LabelValues reads, in 48 bytes where a real
	// profile takes a kilobyte.
	var msg []byte
	msg = append(msg, 2<<3|2, 10, 1<<3, 1, 2<<3, 5, 3<<3|2, 4, 1<<3, 1, 2<<3, 2) // sample
	msg = append(msg, 4<<3|2, 6, 1<<3, 1, 4<<3|2, 2, 1<<3, 1)                    // location 1
	msg = append(msg, 5<<3|2, 4, 1<<3, 1, 2<<3, 3)                               // function 1
	for _, s := range []string{"", KeyRung, "7", "main.burn"} {
		msg = appendString(msg, s)
	}
	f.Add(msg, "burn", KeyRung)
	f.Add([]byte{6<<3 | 2, 10, 'a'}, "", "") // length runs past the buffer
	f.Add(gzipped(msg)[:12], "", KeyRung)    // gzip stream cut short
	if profile := seedProfile(f); profile != nil {
		f.Add(profile, "seedProfile", KeyRung)
	}
	// One writer for every input: a new one allocates ≈ 0.7 MB, which
	// would be most of what an input costs.
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	f.Fuzz(func(t *testing.T, data []byte, function, key string) {
		table, err := ProfileStrings(data)
		counts, cerr := LabelValues(data, function, key)
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			return // already gzipped: a second wrapping is unwrapped only once
		}
		zbuf.Reset()
		zw.Reset(&zbuf)
		zw.Write(data)
		zw.Close()
		z := zbuf.Bytes()
		ztable, zerr := ProfileStrings(z)
		if !slices.Equal(table, ztable) || fmt.Sprint(err) != fmt.Sprint(zerr) {
			t.Fatalf("ProfileStrings: bare %q, %v; gzipped %q, %v", table, err, ztable, zerr)
		}
		zcounts, zcerr := LabelValues(z, function, key)
		if !maps.Equal(counts, zcounts) || fmt.Sprint(cerr) != fmt.Sprint(zcerr) {
			t.Fatalf("LabelValues: bare %v, %v; gzipped %v, %v", counts, cerr, zcounts, zcerr)
		}
	})
}
