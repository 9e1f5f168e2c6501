package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"edgetune/internal/search"
	"edgetune/internal/testutil"
)

// TestEntryKeysDoNotAlias: ("a@b", "c") and ("a", "b@c") join to the
// same "a@b@c" but are two architecture-device pairs. The write-behind
// buffer, the store, WAL replay and the snapshot all keep both, each
// under its own key, and list the shorter signature first.
func TestEntryKeysDoNotAlias(t *testing.T) {
	dir := t.TempDir()
	long, short := entry("a@b", "c"), entry("a", "b@c")
	long.Throughput, short.Throughput = 1, 2
	check := func(stage string, get func(sig, dev string) (Entry, error)) {
		t.Helper()
		for _, want := range []Entry{long, short} {
			got, err := get(want.Signature, want.Device)
			if err != nil || got.Signature != want.Signature || got.Device != want.Device || got.Throughput != want.Throughput {
				t.Errorf("%s: get(%q, %q) = %q@%q throughput %v, %v", stage,
					want.Signature, want.Device, got.Signature, got.Device, got.Throughput, err)
			}
		}
	}
	checkStore := func(stage string, st *Store) {
		t.Helper()
		check(stage, st.Get)
		es := st.Entries()
		if len(es) != 2 || st.Len() != 2 || es[0].Signature != "a" || es[1].Signature != "a@b" {
			t.Errorf("%s: %d entries listed %+v, want a then a@b", stage, st.Len(), es)
		}
	}

	d := openDurable(t, dir, DurableOptions{})
	wb := NewWriteBehind(d.Store())
	wb.Put(long)
	wb.Put(short)
	check("write-behind", wb.Get)
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	checkStore("store", d.Store())
	if err := d.Abandon(); err != nil { // leave the WAL as it stands
		t.Fatal(err)
	}

	d = openDurable(t, dir, DurableOptions{})
	if rr := d.Recovery(); rr.RecordsReplayed != 2 || rr.Entries != 2 {
		t.Errorf("WAL replay recovered %+v, want 2 records into 2 entries", rr)
	}
	checkStore("WAL replay", d.Store())
	if err := d.Close(); err != nil { // compacts into a snapshot
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	file, err := parseStoreFile(data)
	if err != nil || len(file.Entries) != 2 || file.Entries[0].Signature != "a" || file.Entries[1].Signature != "a@b" {
		t.Fatalf("snapshot holds %+v (%v), want a then a@b", file.Entries, err)
	}

	d = openDurable(t, dir, DurableOptions{})
	defer d.Close()
	if rr := d.Recovery(); rr.SnapshotSource != "snapshot" || rr.RecordsReplayed != 0 {
		t.Errorf("reopen recovered %+v, want the snapshot alone", rr)
	}
	checkStore("snapshot", d.Store())
}

// joinedKey is the string entries used to be keyed and sorted by.
func joinedKey(e Entry) string { return strings.Join([]string{e.Signature, e.Device}, "@") }

// TestCmpKeysIsJoinedByteOrder: entries sort as their joined
// "signature@device" strings compare byte by byte, so a snapshot lists
// them as it did when those strings were the keys; only pairs whose
// strings read alike, which were one key then, fall back on the shorter
// signature first. The strings are drawn from bytes around '@', so
// prefixes and separators meet at every offset.
func TestCmpKeysIsJoinedByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte{'?', '@', 'A', 'a', 0, 0xff}
	str := func(min int) string {
		b := make([]byte, min+rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 200000; i++ {
		a := Entry{Signature: str(1), Device: str(1)}
		b := Entry{Signature: str(1), Device: str(1)}
		if i%4 == 0 { // an aliasing pair: the same joined string split elsewhere
			j := joinedKey(a)
			at := strings.IndexByte(j[1:len(j)-1], '@')
			if at < 0 {
				continue
			}
			b = Entry{Signature: j[:at+1], Device: j[at+2:]}
		}
		want := strings.Compare(joinedKey(a), joinedKey(b))
		if want == 0 {
			want = len(a.Signature) - len(b.Signature)
		}
		if got := cmpKeys(&a, &b); sign(got) != sign(want) {
			t.Fatalf("cmpKeys(%q@%q, %q@%q) = %d, want the sign of %d",
				a.Signature, a.Device, b.Signature, b.Device, got, want)
		}
	}
}

func sign(n int) int { return min(max(n, -1), 1) }

// TestIndexMatchesMapModel drives a durable store through a seeded run
// of puts — fresh keys and replaces, through the write-behind buffer
// and in direct batches — gets, Len, Entries, compaction and reopen
// (after a compacting Close or with the WAL left to replay), and holds
// every answer to a plain map. A reader goroutine gets at random
// beside it, so under the race detector hits read the index while
// flushes grow it. The key universe holds aliasing pairs, and in the
// chained run every hash is cut to three bits, so keys share long probe
// chains.
func TestIndexMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys int
		mask uint64
	}{
		{"spread", 2000, ^uint64(0)},
		{"chained", 300, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer plantHashMask(tc.mask)()
			runIndexModel(t, tc.keys)
		})
	}
}

func runIndexModel(t *testing.T, keys int) {
	universe := make([]pair, 0, keys)
	for i := 0; len(universe) < keys; i++ {
		sig := fmt.Sprintf("IC/layers=%d", i)
		universe = append(universe, pair{sig, "i7"}, pair{sig, "i7@rpi"}, pair{sig + "@i7", "rpi"})
	}
	universe = universe[:keys]
	rng := rand.New(rand.NewSource(int64(keys)))
	version := 0
	fresh := func(k pair) Entry {
		version++
		return Entry{Signature: k.sig, Device: k.dev, Config: search.Config{"batch": float64(version % 64)},
			Throughput: float64(version), TrialsRun: version}
	}
	model := map[pair]Entry{}
	wantEntries := func() []Entry {
		type keyed struct {
			key string
			e   Entry
		}
		sorted := make([]keyed, 0, len(model))
		for _, e := range model {
			sorted = append(sorted, keyed{joinedKey(e), e})
		}
		slices.SortFunc(sorted, func(a, b keyed) int {
			if c := strings.Compare(a.key, b.key); c != 0 {
				return c
			}
			return len(a.e.Signature) - len(b.e.Signature)
		})
		out := make([]Entry, len(sorted))
		for i, k := range sorted {
			out[i] = k.e
		}
		return out
	}

	dir := t.TempDir()
	var (
		d    *Durable
		wb   *WriteBehind
		stop chan struct{}
		read sync.WaitGroup
	)
	open := func() {
		d = openDurable(t, dir, DurableOptions{})
		if rr := d.Recovery(); rr.Entries != len(model) || rr.RecordsQuarantined != 0 {
			t.Fatalf("reopen recovered %+v, want %d entries", rr, len(model))
		}
		wb = NewWriteBehind(d.Store())
		stop = make(chan struct{})
		read.Add(1)
		go func(st *Store, seed int64) { // answers whatever it finds under the key it asked for
			defer read.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := universe[rng.Intn(len(universe))]
				if e, err := st.get(k.sig, k.dev); err == nil && keyOf(&e) != k {
					t.Errorf("Get(%q, %q) answered %q@%q", k.sig, k.dev, e.Signature, e.Device)
					return
				}
			}
		}(d.Store(), rng.Int63())
	}
	shut := func(compact bool) {
		close(stop)
		read.Wait()
		if err := wb.Close(); err != nil {
			t.Fatal(err)
		}
		end := d.Abandon // the WAL left to replay
		if compact {
			end = d.Close
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	checkAll := func(op int) {
		t.Helper()
		st := d.Store()
		if st.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, st.Len(), len(model))
		}
		if got, want := st.Entries(), wantEntries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: Entries differ from the model's %d", op, len(want))
		}
	}

	open()
	for op := 0; op < 2*keys; op++ {
		k := universe[rng.Intn(len(universe))]
		switch r := rng.Intn(1000); {
		case r < 500:
			e := fresh(k)
			if err := wb.Put(e); err != nil {
				t.Fatal(err)
			}
			model[k] = e
		case r < 850:
			want, ok := model[k]
			got, err := wb.Get(k.sig, k.dev)
			if ok != (err == nil) || ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: Get(%q, %q) = %+v, %v; want %+v, %v", op, k.sig, k.dev, got, err, want, ok)
			}
		case r < 900: // a direct batch, a key repeated in it too
			if err := wb.Flush(); err != nil {
				t.Fatal(err)
			}
			batch := make([]Entry, 1+rng.Intn(8))
			for i := range batch {
				batch[i] = fresh(universe[rng.Intn(len(universe))])
			}
			batch = append(batch, fresh(keyOf(&batch[0])))
			if n, err := d.Store().PutBatch(batch); err != nil || n != len(batch) {
				t.Fatalf("op %d: PutBatch = %d, %v", op, n, err)
			}
			for _, e := range batch {
				model[keyOf(&e)] = e
			}
		case r < 990:
			if err := wb.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := d.Store().Len(); got != len(model) {
				t.Fatalf("op %d: Len = %d, want %d", op, got, len(model))
			}
			if err := d.Store().Sync(); err != nil { // compacts every 256 records
				t.Fatal(err)
			}
		case r < 996:
			if err := wb.Flush(); err != nil {
				t.Fatal(err)
			}
			checkAll(op)
		default:
			shut(rng.Intn(2) == 0)
			open()
			checkAll(op)
		}
	}
	shut(true)
	open()
	checkAll(2 * keys)
	shut(true)
}

// TestIndexGrowthAllocatesLittle: an in-memory store put 30 000 fresh
// keys allocates each entry's share of its block and the index table's
// doublings, which end at 65 536 four-byte slots: ≈ 23 B a put beyond
// the blocks, where a map index keyed by a built "signature@device"
// string read ≈ 145 B.
func TestIndexGrowthAllocatesLittle(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the store's behalf")
	}
	const n = 30000
	cfg := search.Config{"batch": 16}
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Signature: fmt.Sprintf("IC/layers=%d", i), Device: "i7", Config: cfg}
	}
	st := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range es {
		if err := st.put(e); err != nil { // put takes the Config over: no clone
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	blocked := 0 // entries the blocks hold room for: 4, 8, … 256, then 256 a block
	for size := minBlock; blocked < n; size = min(2*size, maxBlock) {
		blocked += size
	}
	blockBytes := uint64(blocked) * uint64(reflect.TypeFor[Entry]().Size())
	beyond := float64(after.TotalAlloc-before.TotalAlloc-blockBytes) / n
	t.Logf("%.1f B a put beyond its %d-byte entry", beyond, reflect.TypeFor[Entry]().Size())
	if beyond > 40 {
		t.Errorf("a fresh put allocates %.1f B beyond its block share, want ≤ 40", beyond)
	}
}
