package webgraph

import (
	"sort"
	"testing"
)

// succFromBytes derives a sorted, duplicate-free, in-range successor
// list from fuzz-controlled bytes, so the round-trip targets explore
// arbitrary list shapes while staying in the encoders' contract.
func succFromBytes(data []byte, numNodes int) []int32 {
	if numNodes <= 0 {
		return nil
	}
	seen := map[int32]bool{}
	var cur int32
	for _, b := range data {
		cur = (cur + int32(b) + 1) % int32(numNodes)
		seen[cur] = true
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzDecodeRoundTrip checks that every encodable adjacency list decodes
// back to itself under the gap codec, consuming exactly the bytes
// produced.
func FuzzDecodeRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint16(50), []byte{1, 2, 3})
	f.Add(uint16(7), uint16(1000), []byte{0, 0, 0, 255, 255})
	f.Add(uint16(999), uint16(1000), []byte{})
	f.Fuzz(func(t *testing.T, nodeRaw, sizeRaw uint16, succBytes []byte) {
		numNodes := int(sizeRaw)%2048 + 1
		node := int32(int(nodeRaw) % numNodes)
		succ := succFromBytes(succBytes, numNodes)

		enc, err := EncodeAdjacency(nil, node, succ)
		if err != nil {
			t.Fatalf("encode rejected its contract input: %v", err)
		}
		got, n, err := DecodeAdjacency(enc, node, numNodes, nil)
		if err != nil {
			t.Fatalf("decode failed on valid encoding: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if !equalInt32(got, succ) {
			t.Fatalf("round trip mismatch: %v != %v", got, succ)
		}

	})
}

// FuzzReaderArbitraryBytes feeds attacker-controlled bytes to the
// adjacency decoder, the one entry point that parses a compressed slab
// (BuildTransitionSlabs and DecompressParallel both decode through it).
// It may not panic, and on success the decoded list must honor the
// documented invariants (sorted, strictly increasing, in range).
func FuzzReaderArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x01, 0x00, 0x02})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A valid list, so the fuzzer can mutate from a well-formed seed.
	valid, err := EncodeAdjacency(nil, 1, []int32{0, 5, 6, 7, 100, 1400})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		const numNodes = 1500
		for _, node := range []int32{0, 1, numNodes - 1} {
			succ, n, err := DecodeAdjacency(data, node, numNodes, nil)
			if err == nil {
				if n > len(data) {
					t.Fatalf("consumed %d > input %d", n, len(data))
				}
				checkSorted(t, succ, numNodes)
			}
		}
	})
}

func checkSorted(t *testing.T, succ []int32, numNodes int) {
	t.Helper()
	for i, v := range succ {
		if v < 0 || int(v) >= numNodes {
			t.Fatalf("out-of-range successor %d", v)
		}
		if i > 0 && succ[i-1] >= v {
			t.Fatalf("decoded list not strictly increasing: %v", succ)
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
