package linalg

import (
	"errors"
	"testing"
)

func TestFixedPointCheckedProgressObservesEveryIteration(t *testing.T) {
	var iters []int
	opt := SolverOptions{Tol: 1e-12, MaxIter: 50, Progress: func(iter int, x Vector) error {
		iters = append(iters, iter)
		return nil
	}}
	_, st, err := scalarAffine(t, 0.5, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != st.Iterations {
		t.Fatalf("progress saw %d iterations, stats say %d", len(iters), st.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("iteration sequence broken at %d: %v", i, iters)
		}
	}
}

func TestFixedPointCheckedProgressAbort(t *testing.T) {
	boom := errors.New("boom")
	_, st, err := scalarAffine(t, 0.5, 1, SolverOptions{Tol: 1e-12, MaxIter: 50, Progress: func(iter int, x Vector) error {
		if iter == 3 {
			return boom
		}
		return nil
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("want abort error, got %v", err)
	}
	if st.Iterations != 3 {
		t.Fatalf("aborted at iteration %d, want 3", st.Iterations)
	}
	if st.Converged {
		t.Fatal("aborted solve reported converged")
	}
}

func TestPowerMethodPropagatesProgressError(t *testing.T) {
	m, err := NewCSR(2, 2, []Entry{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	_, _, err = powerMethod(m, 0.85, NewUniformVector(2), nil, SolverOptions{
		Progress: func(iter int, x Vector) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want progress error surfaced, got %v", err)
	}
}
