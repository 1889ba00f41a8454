package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewUniformVector(t *testing.T) {
	v := NewUniformVector(4)
	if len(v) != 4 {
		t.Fatalf("len = %d, want 4", len(v))
	}
	for i, x := range v {
		if x != 0.25 {
			t.Errorf("v[%d] = %v, want 0.25", i, x)
		}
	}
	if !almostEq(v.Norm1(), 1, 1e-15) {
		t.Errorf("sum = %v, want 1", v.Norm1())
	}
}

func TestNewUniformVectorEmpty(t *testing.T) {
	if v := NewUniformVector(0); len(v) != 0 {
		t.Errorf("NewUniformVector(0) len = %d, want 0", len(v))
	}
	if v := NewUniformVector(-3); len(v) != 0 {
		t.Errorf("NewUniformVector(-3) len = %d, want 0", len(v))
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliases original: v[0] = %v", v[0])
	}
}

func TestNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm1(); got != 7 {
		t.Errorf("Norm1 = %v, want 7", got)
	}
	if got := v.Norm2(); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestScale(t *testing.T) {
	v := Vector{1, 2}
	v.Scale(3)
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("Scale got %v", v)
	}
}

func TestNormalize1(t *testing.T) {
	v := Vector{2, 6}
	if !v.Normalize1() {
		t.Fatal("Normalize1 returned false for nonzero vector")
	}
	if !almostEq(v[0], 0.25, 1e-15) || !almostEq(v[1], 0.75, 1e-15) {
		t.Errorf("Normalize1 got %v", v)
	}
	z := Vector{0, 0}
	if z.Normalize1() {
		t.Error("Normalize1 returned true for zero vector")
	}
}

func TestDistances(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{1, 2, 3}
	if d := L2Distance(a, b); d != 0 {
		t.Errorf("L2Distance equal vectors = %v", d)
	}
	c := Vector{4, 6, 3}
	if d := L2Distance(a, c); !almostEq(d, 5, 1e-12) {
		t.Errorf("L2Distance = %v, want 5", d)
	}
}

func TestFill(t *testing.T) {
	v := NewVector(3)
	v.Fill(7)
	for i := range v {
		if v[i] != 7 {
			t.Fatalf("Fill got %v", v)
		}
	}
}

// Property: for any vector, Normalize1 on a strictly positive vector makes
// it sum to 1.
func TestQuickNormalize1Sums(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make(Vector, len(raw))
		for i, x := range raw {
			v[i] = math.Abs(math.Mod(x, 1000)) + 1 // strictly positive, bounded
		}
		v.Normalize1()
		return almostEq(v.Norm1(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for L2Distance.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 3
		a, b, c := make(Vector, n), make(Vector, n), make(Vector, n)
		for i := 0; i < n; i++ {
			a[i] = clean(raw[i])
			b[i] = clean(raw[n+i])
			c[i] = clean(raw[2*n+i])
		}
		return L2Distance(a, c) <= L2Distance(a, b)+L2Distance(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clean(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
