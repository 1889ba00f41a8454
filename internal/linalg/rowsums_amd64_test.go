//go:build amd64

package linalg

// eachRowSumsImpl runs f once per row-sum implementation this host can
// run — the Go loops, then the AVX2 kernels — naming it as RowSumsImpl
// does. It switches the package's dispatch variable around each call, so
// its callers must not run in parallel with other tests.
func eachRowSumsImpl(f func(impl string)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f(RowSumsImpl())
	if cpuHasAVX2() {
		useAVX2 = true
		f(RowSumsImpl())
	}
}
