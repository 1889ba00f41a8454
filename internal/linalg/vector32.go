package linalg

// Vector32 is a dense float32 vector: the bandwidth-oriented mirror of
// Vector used by the float32 scoring path. A Vector32 iterate moves half
// the bytes of a Vector through the memory hierarchy per solver sweep;
// reductions over it (the kernel's lost-mass sum and residual) accumulate
// in float64, so precision is lost only in the stored representation,
// never in the summation.
type Vector32 []float32

// Vector widens v entrywise back to float64; the conversion is exact.
func (v Vector32) Vector() Vector {
	w := make(Vector, len(v))
	for i, x := range v {
		w[i] = float64(x)
	}
	return w
}
