package cluster

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/search"
	"edgetune/internal/store"
)

// TestFollowerLogMatchesPrimary: a replica appends the primary's WAL
// frames verbatim and in order, so before any compaction the follower's
// log is the primary's byte for byte — also when follower lag parks
// frames that a later ship or the catch-up flushes. The primary frames
// every append in one reused buffer, and its checkpoints grow and then
// shrink here: a parked frame that shared that buffer instead of
// copying it would reach the follower as a later record's bytes.
func TestFollowerLogMatchesPrimary(t *testing.T) {
	for _, tc := range []struct {
		name string
		lag  float64
	}{{"in step", 0}, {"lagged", 0.5}} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := fault.NewInjector(fault.Config{FollowerLag: tc.lag}, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			sh, err := openShard("shard0", t.TempDir(), -1, inj, reg, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := sh.primary.Store()
			for i, n := range []int{16, 512, 4096, 20000, 4096, 512, 16} {
				blob := fmt.Sprintf(`{"rung":%d,"pad":%q}`, i, strings.Repeat("x", n))
				if _, err := st.SaveCheckpoint("tune/job", []byte(blob)); err != nil {
					t.Fatal(err)
				}
				if err := st.Put(store.Entry{Signature: fmt.Sprintf("sig-%d", i), Device: "i7",
					Config: search.Config{"batch": float64(n)}}); err != nil {
					t.Fatal(err)
				}
			}
			st.ClearCheckpoint("tune/job")
			if err := sh.rep.catchUp(); err != nil {
				t.Fatal(err)
			}

			primary, err := os.ReadFile(sh.snapshotPath("primary") + ".wal")
			if err != nil {
				t.Fatal(err)
			}
			follower, err := os.ReadFile(sh.snapshotPath("follower") + ".wal")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(follower, primary) {
				t.Errorf("follower log (%d bytes) differs from the primary log (%d bytes)", len(follower), len(primary))
			}
			lagged := reg.Counter("cluster.ship.lagged").Value()
			if tc.lag > 0 && lagged == 0 {
				t.Error("follower lag parked no frame")
			}
			t.Logf("%d frames shipped, %d of them parked first", reg.Counter("cluster.ship.shipped").Value(), lagged)
			if err := sh.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
