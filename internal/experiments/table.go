// Package experiments regenerates every table and figure of the paper's
// evaluation as text tables: the motivation studies (Figures 1-5), the
// design illustrations (Figures 6-11), the budget evaluation (Figures
// 12-13), the baseline comparisons (Figures 14-17), and the catalogue
// tables (Tables 1-2). Each harness is deterministic and memoised so
// benchmark iterations beyond the first are free.
package experiments

import (
	"fmt"
	"strings"
	"sync"
)

// Table is a printable experiment result: the textual equivalent of one
// of the paper's figures.
type Table struct {
	// ID names the experiment ("Figure 2", "Table 1", ...).
	ID string
	// Title describes what the experiment shows.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the data, row-major.
	Rows [][]string
	// Notes carries the shape conclusions checked against the paper.
	Notes []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// memo caches a deterministic experiment so repeated benchmark
// iterations only pay once.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memo[T]) do(f func() (T, error)) (T, error) {
	m.once.Do(func() { m.val, m.err = f() })
	return m.val, m.err
}

// memoByKey runs f once per key: a caller that asks for a key another
// caller is computing waits for that result instead of computing it
// again.
type memoByKey[K comparable, T any] struct {
	mu sync.Mutex
	m  map[K]*memo[T]
}

func (k *memoByKey[K, T]) do(key K, f func() (T, error)) (T, error) {
	k.mu.Lock()
	m, ok := k.m[key]
	if !ok {
		if k.m == nil {
			k.m = make(map[K]*memo[T])
		}
		m = new(memo[T])
		k.m[key] = m
	}
	k.mu.Unlock()
	return m.do(f)
}

// f2 formats a float with two decimals; f1 and f3 vary precision.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
