package fault

import (
	"reflect"
	"strings"
	"testing"
)

// TestSpecSetMerges: a spec sets the keys it names and leaves every
// other field as it was, and String prints the non-zero entries in
// table order.
func TestSpecSetMerges(t *testing.T) {
	c := Config{TrialCrash: 0.6, DroppedReply: 0.2, StragglerFactor: 3}
	if err := c.Set("trial-crash=0,device-flap=0.05,brownout-factor=4"); err != nil {
		t.Fatal(err)
	}
	want := Config{DroppedReply: 0.2, DeviceFlap: 0.05, BrownoutFactor: 4, StragglerFactor: 3}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("merged %+v, want %+v", c, want)
	}
	if got := c.String(); got != "device-flap=0.05,dropped-reply=0.2,brownout-factor=4" {
		t.Errorf("String() = %q", got)
	}
	if err := c.Set(""); err != nil || !reflect.DeepEqual(c, want) {
		t.Errorf("the empty spec: err %v, config %+v", err, c)
	}
}

// TestSpecRejects: an unknown key names every class, and a rejected spec
// leaves the config as it was, even where its earlier entries were good.
func TestSpecRejects(t *testing.T) {
	for _, spec := range []string{"trial-crash=0.5,fault-crash=0.5", "trial-crash", "trial-crash=high", "trial-crash=NaN", "trial-crash=0.1,"} {
		c := Config{DroppedReply: 0.2}
		err := c.Set(spec)
		if err == nil {
			t.Errorf("Set(%q) accepted", spec)
			continue
		}
		if !reflect.DeepEqual(c, Config{DroppedReply: 0.2}) {
			t.Errorf("Set(%q) failed but left %+v", spec, c)
		}
	}
	err := new(Config).Set("fault-crash=0.5")
	if err == nil {
		t.Fatal("an unknown class was accepted")
	}
	for _, class := range Classes() {
		if !strings.Contains(err.Error(), string(class)) {
			t.Errorf("unknown-class error %q does not list %s", err, class)
		}
	}
}

// TestClassScopeRule: a disk class reaches a job only through a
// single-node durable store, a cluster class only on a cluster, and
// every other class anywhere.
func TestClassScopeRule(t *testing.T) {
	for _, class := range Classes() {
		for _, store := range []bool{false, true} {
			for _, cluster := range []bool{false, true} {
				want := true
				switch {
				case class.Disk():
					want = store && !cluster
				case class.Cluster():
					want = cluster
				}
				if err := class.Scope(store, cluster); (err == nil) != want {
					t.Errorf("%s.Scope(store %v, cluster %v) = %v, want reachable %v", class, store, cluster, err, want)
				}
			}
		}
	}
}

// FuzzFaultSpec: Set never panics, a spec it rejects leaves the config
// alone, and a spec it accepts round-trips — its canonical String, set
// into a fresh Config, gives the same Config and the same String.
func FuzzFaultSpec(f *testing.F) {
	every := make([]string, 0, len(Classes()))
	for _, class := range Classes() {
		every = append(every, string(class)+"=0.5")
	}
	for _, seed := range []string{
		"",
		"trial-crash=0.2,dropped-reply=0.1,brownout-factor=4",
		strings.Join(every, ","),
		"disk-torn-write=1e-300,shard-kill=1",
		" trial-crash = 0.5 ,trial-crash=0.25",
		"trial-crash=-0,brownout-factor=-6",
		"trial-crash=+Inf",
		"trial-crash=NaN",
		"trial-crash",
		"fault-crash=0.5",
		"trial-crash=0.1,,device-flap=0.2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var c Config
		if err := c.Set(spec); err != nil {
			if !reflect.DeepEqual(c, Config{}) {
				t.Fatalf("Set(%q) failed with %v but left %+v", spec, err, c)
			}
			return
		}
		canon := c.String()
		var again Config
		if err := again.Set(canon); err != nil {
			t.Fatalf("Set(%q) rejected the canonical spec %q of an accepted one: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("Set(%q) gave %+v, its canonical spec %q gives %+v", spec, c, canon, again)
		}
		if again.String() != canon {
			t.Fatalf("canonical spec %q reprints as %q", canon, again.String())
		}
	})
}
