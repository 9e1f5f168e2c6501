package fault

import "fmt"

// NamedValue pairs a flag or field name with its numeric value for
// table-driven validation. cmd/edgetune feeds its -faults config's class
// probabilities through CheckProbs and its scalar knobs through
// CheckNonNegative; Config.Validate (through checkProb, CheckProbs of
// one value) and the chaos fuzzer's schedule intensities go through the
// same helpers, so no surface can drift on bounds or error text.
type NamedValue struct {
	Name  string
	Value float64
}

// CheckProbs verifies every value is a probability in [0, 1]; a NaN is
// not one. The error text is the contract the CLI tests pin.
func CheckProbs(vals []NamedValue) error {
	for _, v := range vals {
		if err := checkProb(v.Name, v.Value); err != nil {
			return err
		}
	}
	return nil
}

// checkProb is CheckProbs of one value. The test is written so that a
// NaN, which every comparison is false for, fails it.
func checkProb(name string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("%s: probability %v outside [0,1]", name, v)
	}
	return nil
}

// CheckNonNegative verifies every value is >= 0; a NaN is not.
func CheckNonNegative(vals []NamedValue) error {
	for _, v := range vals {
		if !(v.Value >= 0) {
			return fmt.Errorf("%s: negative value %v", v.Name, v.Value)
		}
	}
	return nil
}

// ProbValues names every class probability of a Config by its class, in
// Classes order — what cmd/edgetune's check feeds to CheckProbs.
func (c Config) ProbValues() []NamedValue {
	out := make([]NamedValue, len(classTable))
	for i, row := range classTable {
		out[i] = NamedValue{Name: string(row.class), Value: *row.prob(&c)}
	}
	return out
}
