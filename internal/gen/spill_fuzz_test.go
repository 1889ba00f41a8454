package gen

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sourcerank/internal/durable"
)

// FuzzRunDecode drives arbitrary bytes, as a run file on disk, through
// the streaming run reader the merge consumes runs with. The contract
// mirrors FuzzSlabDecode: any input either decodes to a
// strictly-increasing key run or fails with a typed error (ErrRunFormat
// for structural defects, durable.ErrCorrupt for framing defects) —
// never a panic.
func FuzzRunDecode(f *testing.F) {
	seedRun := func(keys []uint64) []byte {
		dir := f.TempDir()
		s := &spillSink{fsys: durable.OS{}, dir: dir, buf: append(make([]uint64, 0, len(keys)+1), keys...)}
		s.spill()
		if s.err != nil || len(s.runs) != 1 {
			f.Fatalf("seed spill failed: %v (%d runs)", s.err, len(s.runs))
		}
		data, err := os.ReadFile(s.runs[0])
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := seedRun([]uint64{key(0, 1), key(0, 2), key(3, 0)})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                 // torn trailer
	f.Add(valid[:runHeaderSize])                // header without keys or trailer
	f.Add(seedRun([]uint64{key(1, 1)}))         // single edge
	f.Add(durable.Frame(nil))                   // framed empty payload
	f.Add(durable.Frame(valid[:runHeaderSize])) // framed bare header (count lies)
	mut := append([]byte(nil), valid...)
	mut[4] ^= 0xFF // version
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x45, 0x52, 0x53}) // magic alone, unframed

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		defer close(stop)
		cur := &runCursor{ch: startRunReader(durable.OS{}, path, 1, stop)}
		var prev uint64
		for n := 0; ; n++ {
			ok, err := cur.next()
			if err != nil {
				if !errors.Is(err, ErrRunFormat) && !errors.Is(err, durable.ErrCorrupt) {
					t.Fatalf("decode error is untyped: %v", err)
				}
				return
			}
			if !ok {
				return
			}
			if n > 0 && cur.key <= prev {
				t.Fatalf("accepted run with non-increasing keys at %d", n)
			}
			prev = cur.key
		}
	})
}
