package tensor

// Hadamard multiplies element-wise by other in place.
func (m *Matrix) Hadamard(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: Hadamard shape mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] *= v
	}
}

// ColSums returns the per-column sums (length Cols).
func (m *Matrix) ColSums() []float64 { return m.ColSumsInto(make([]float64, m.Cols)) }

// ArgmaxRows returns the index of the maximum element of each row.
func (m *Matrix) ArgmaxRows() []int { return m.ArgmaxRowsInto(make([]int, m.Rows)) }
