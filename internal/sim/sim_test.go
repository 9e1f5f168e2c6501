package sim

import (
	"testing"
	"time"
)

func TestFormatMinutes(t *testing.T) {
	if got := FormatMinutes(150 * time.Second); got != "2.50m" {
		t.Errorf("FormatMinutes = %q, want 2.50m", got)
	}
}
