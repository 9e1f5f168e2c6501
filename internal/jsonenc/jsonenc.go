// Package jsonenc is the rule the pipeline's hand-written JSON encoders
// share with encoding/json: which strings it writes as they stand, and
// how it writes a float64. An encoder that writes JSON directly, to
// spare a hot path encoding/json's reflection, writes only what these
// cover and hands everything else to encoding/json, so that the bytes
// are json.Marshal's either way.
package jsonenc

import (
	"math"
	"strconv"
)

// Plain reports whether encoding/json writes s as it stands between
// quotes: printable ASCII without a quote, a backslash or an HTML
// character.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// Finite reports whether f is neither NaN nor ±Inf: a float encoding/json
// writes rather than rejects.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// AppendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 or
// from 1e21 on, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
