package p

import "testing"

// A test's call links nothing into a product binary.
func TestUnreached(t *testing.T) {
	if Unreached() != 1 {
		t.Fatal("Unreached")
	}
}
