package linalg

// RowSums64 and RowSums64Go are the dispatched float64 row-sum pass and its
// Go definition, RowSums64Pair the dispatched pair pass and RowSums32 the
// dispatched float32 pass, for rowsums_bench_test.go: that file is package
// linalg_test so that it can import the corpus generator, which imports
// this package.
var RowSums64, RowSums64Go, RowSums64Pair, RowSums32 = rowSums64, rowSums64Go, rowSums64Pair, rowSums32
