package server

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sourcerank/internal/linalg"
)

// randomSnapshot builds a self-consistent synthetic snapshot. The score
// of source i is derived from the snapshot's own generation number, so a
// reader can detect a torn snapshot (mixed generations) by checking
// internal consistency.
func randomSnapshot(t *testing.T, n int, generation int64, rng *rand.Rand) *Snapshot {
	t.Helper()
	scores := make(linalg.Vector, n)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	labels := make([]string, n)
	pages := make([]int, n)
	for i := range labels {
		labels[i] = "src" + string(rune('a'+i%26))
		pages[i] = int(generation) // generation marker, checked by readers
	}
	snap, err := NewSnapshot(CorpusInfo{Name: "stress"}, labels, pages, 0,
		map[Algo]*ScoreSet{AlgoSRSR: NewScoreSet(scores, linalg.IterStats{})}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestStoreHotSwapStress hammers Current() from many reader goroutines
// while several publishers swap snapshots. Run with -race. Readers
// verify that every observed snapshot is internally consistent (its
// rank index inverts its order index, its generation marker is uniform)
// and that versions never go backwards from any single reader's view.
func TestStoreHotSwapStress(t *testing.T) {
	const (
		nSources   = 200
		readers    = 8
		publishers = 4
		publishes  = 25 // per publisher
	)
	rng := rand.New(rand.NewSource(42))
	store := NewStore(randomSnapshot(t, nSources, 0, rng))

	var generation atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup

	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(p) + 100))
			for i := 0; i < publishes; i++ {
				gen := generation.Add(1)
				store.Publish(randomSnapshot(t, nSources, gen, prng))
			}
		}(p)
	}

	readErr := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(r) + 1000))
			var lastVersion uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := store.Current()
				if snap == nil {
					readErr <- "nil snapshot after initial publish"
					return
				}
				if v := snap.Version(); v < lastVersion {
					readErr <- "version went backwards"
					return
				} else {
					lastVersion = v
				}
				ss := snap.Set(AlgoSRSR)
				// Probe the index invariant at random positions.
				for k := 0; k < 16; k++ {
					pos := prng.Intn(nSources)
					if int(ss.rank[ss.order[pos]]) != pos {
						readErr <- "rank index does not invert order index"
						return
					}
					if pos > 0 && ss.scores[ss.order[pos]] > ss.scores[ss.order[pos-1]] {
						readErr <- "order index not sorted"
						return
					}
				}
				// Generation marker must be uniform across the snapshot:
				// a torn swap would mix fields from two snapshots.
				g := snap.pageCount[0]
				if snap.pageCount[nSources-1] != g || snap.pageCount[nSources/2] != g {
					readErr <- "mixed generations inside one snapshot"
					return
				}
				// Exercise the query path too.
				snap.resp.topk[AlgoSRSR].writeTo(io.Discard, 5, snap.resp.digits)
			}
		}(r)
	}

	// Let publishers finish, then stop readers.
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		// Wait for publishers only: they are the first `publishers`
		// goroutines added to wg, but wg covers readers too, so track
		// via the publish count instead.
		for store.Publishes() < uint64(publishers*publishes)+1 {
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-pubDone:
	case <-time.After(30 * time.Second):
		t.Fatal("publishers did not finish in time")
	}
	close(done)
	wg.Wait()
	close(readErr)
	for msg := range readErr {
		t.Error(msg)
	}

	if got := store.Publishes(); got != uint64(publishers*publishes)+1 {
		t.Fatalf("publishes = %d, want %d", got, publishers*publishes+1)
	}
	if v := store.Current().Version(); v != uint64(publishers*publishes)+1 {
		t.Fatalf("final version = %d, want %d", v, publishers*publishes+1)
	}
}

func TestStoreEmptyThenPublish(t *testing.T) {
	store := NewStore(nil)
	if store.Current() != nil {
		t.Fatal("empty store returned a snapshot")
	}
	snap := testSnapshot(t, AlgoSRSR, []float64{1, 2})
	if v := store.Publish(snap); v != 1 {
		t.Fatalf("first version = %d", v)
	}
	if store.Current() != snap {
		t.Fatal("Current() did not return published snapshot")
	}
}
