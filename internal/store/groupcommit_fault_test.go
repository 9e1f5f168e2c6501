package store_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"edgetune/internal/fault"
	"edgetune/internal/store"
)

// TestGroupCommitTornWriteKeepsPrefix: a group of four puts whose frame
// i is torn by the fault filesystem keeps frames 0..i-1 — acknowledged,
// applied and recovered — and rejects the rest, leaving no torn bytes
// behind for recovery to cut.
func TestGroupCommitTornWriteKeepsPrefix(t *testing.T) {
	const n = 4
	es := make([]store.Entry, n)
	for k := range es {
		es[k] = store.Entry{Signature: fmt.Sprintf("sig-%d", k), Device: "i7", Throughput: float64(k)}
	}
	// A disk fault is keyed by the frame it writes: learn the group's
	// frame sites, in write order, from an observer on a clean run.
	var sites []string
	observe := func(class fault.Class, site string, attempt int, _ bool) {
		if class == fault.DiskTornWrite && attempt == 0 {
			sites = append(sites, site)
		}
	}
	in, err := fault.NewInjector(fault.Config{Observe: observe}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDurable(store.DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json"), FS: fault.NewFS(nil, in)})
	if err != nil {
		t.Fatal(err)
	}
	if kept, err := d.Store().PutBatch(es); kept != n || err != nil {
		t.Fatalf("clean group kept %d entries, err %v", kept, err)
	}
	d.Abandon()
	if len(sites) != n {
		t.Fatalf("a group of %d puts wrote %d frames: %v", n, len(sites), sites)
	}
	for i := range n {
		t.Run(fmt.Sprintf("frame-%d", i), func(t *testing.T) {
			plan, err := fault.NewPlan([]fault.Event{{Class: fault.DiskTornWrite, Site: sites[i]}})
			if err != nil {
				t.Fatal(err)
			}
			in, err := fault.NewInjector(fault.Config{Plan: plan}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "store.json")
			d, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path, FS: fault.NewFS(nil, in)})
			if err != nil {
				t.Fatal(err)
			}
			kept, err := d.Store().PutBatch(es)
			if kept != i || fault.ClassOf(err) != fault.DiskTornWrite {
				t.Fatalf("group torn at frame %d kept %d entries, err %v", i, kept, err)
			}
			if d.Store().Len() != i {
				t.Errorf("store holds %d entries, want %d", d.Store().Len(), i)
			}
			if err := d.Abandon(); err != nil {
				t.Fatal(err)
			}
			again, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if rec := again.Recovery(); rec.RecordsReplayed != i || rec.Entries != i || rec.TruncatedBytes != 0 || rec.RecordsQuarantined != 0 {
				t.Errorf("recovery %+v, want %d clean records", rec, i)
			}
			for k := range i {
				if _, err := again.Store().Get(es[k].Signature, "i7"); err != nil {
					t.Errorf("frame %d lost: %v", k, err)
				}
			}
			if _, err := again.Store().Get(es[i].Signature, "i7"); !errors.Is(err, store.ErrNotFound) {
				t.Errorf("the torn frame %d was recovered: %v", i, err)
			}
		})
	}
}
