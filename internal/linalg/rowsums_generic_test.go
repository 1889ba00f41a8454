//go:build !amd64

package linalg

// eachRowSumsImpl runs f once per row-sum implementation this host can
// run: off amd64, the Go loops alone.
func eachRowSumsImpl(f func(impl string)) { f(RowSumsImpl()) }
