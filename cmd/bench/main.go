// Command bench is the out-of-core long-run recorder: it runs the entire
// cold path — generate, compress, transition-slab build, solve — without
// the edge list or a decoded CSR ever resident, and proves the
// slab-backed solves stay under an artificial residency cap while
// producing scores bitwise identical to the fully in-memory solve at
// every worker count, in both precisions. The committed reference is
//
//	go run ./cmd/bench -scale 2.0 -out BENCH_outofcore.json
//
// and without -out the report goes to stdout. Everything else the
// system times is a workload of `go run ./benchmark`.
//
// Flow: stream-generate into sorted shard runs (bounded spill buffer;
// the gen phase's own VmHWM is recorded and gated against the cap) →
// compress straight off the k-way run merge → build float64 and float32
// transition slabs from the compressed stream → decode once for the
// in-memory reference solves (FNV-64a hash of the raw score bits per
// precision × worker tier) → drop every in-heap operand and reset the
// RSS high-water mark → re-solve each (precision, tier) from the
// memory-mapped slab with MaxResident set to the cap → compare hashes
// and the measured VmHWM.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		preset  = flag.String("preset", "UK2002", "synthetic corpus preset (UK2002, IT2004, WB2001)")
		scale   = flag.Float64("scale", 0.02, "fraction of the preset's Table 1 size to generate")
		seed    = flag.Uint64("seed", 1, "generator seed (pins the corpus)")
		out     = flag.String("out", "", "report output path (default stdout)")
		workers = flag.Int("workers", 4, "worker count for the top tier (1 and 2 always run)")

		residencyCap = flag.String("residency-cap", "",
			"artificial peak-RSS cap for the slab solves, e.g. 300m (default: slab bytes / 4)")
	)
	flag.Parse()

	// run owns the spill and slab scratch directories; exiting only after
	// it returns is what lets its deferred cleanup happen on failure too.
	if err := run(*preset, *scale, *seed, *out, *workers, *residencyCap); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
