package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// brownoutFactorKey is the one spec key that names no class: the
// maximum brown-out slowdown, Config.BrownoutFactor.
const brownoutFactorKey = "brownout-factor"

// Set merges spec — comma-separated key=value pairs, each key a class
// name (its probability) or brownout-factor — into c: a key given sets
// its field and every other field keeps its value, so a spec on the
// command line overrides a job file's config class by class. With String
// it makes *Config a flag.Value. An unknown key or a value that is not a
// number is an error, and leaves c as it was; ranges are the caller's to
// check.
func (c *Config) Set(spec string) error {
	if spec == "" {
		return nil
	}
	next := *c
	for _, pair := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("fault spec entry %q is not class=value", pair)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) {
			return fmt.Errorf("fault spec entry %q: %q is not a number", pair, val)
		}
		switch row := rowOf(Class(key)); {
		case row.class != "":
			*row.prob(&next) = v
		case key == brownoutFactorKey:
			next.BrownoutFactor = v
		default:
			return fmt.Errorf("unknown fault class %q (classes: %v)", key, Classes())
		}
	}
	*c = next
	return nil
}

// String is c's canonical spec: its non-zero entries, the classes in
// table order and then brownout-factor, each value in the shortest form
// that parses back to it.
func (c *Config) String() string {
	var pairs []string
	add := func(key string, v float64) {
		if v != 0 {
			pairs = append(pairs, key+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	for _, row := range classTable {
		add(string(row.class), *row.prob(c))
	}
	add(brownoutFactorKey, c.BrownoutFactor)
	return strings.Join(pairs, ",")
}

// Scope is nil when c has decision points in a job that runs with a
// durable store (store) or on a sharded cluster (cluster), and otherwise
// says why it has none. A disk class fires in the fault.FS under a
// single-node job's durable store — a cluster's replica stores use the
// plain filesystem — and a cluster class on the sharded dispatcher only.
// Every other class fires anywhere.
func (c Class) Scope(store, cluster bool) error {
	switch row := rowOf(c); {
	case row.disk && (cluster || !store):
		return fmt.Errorf("%s fires only under a single-node job's durable store (-store, no -cluster)", c)
	case row.cluster && !cluster:
		return fmt.Errorf("%s fires only on a sharded cluster (-cluster)", c)
	}
	return nil
}
