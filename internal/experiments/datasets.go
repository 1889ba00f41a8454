package experiments

import (
	"fmt"
	"sync"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// corpus bundles a generated dataset with its derived source graph and
// the base (unattacked) ranking pipeline outputs.
type corpus struct {
	ds *gen.Dataset
	sg *source.Graph
	// pipeline artifacts (lazily computed by basePipeline)
	pipeOnce sync.Once
	pipeErr  error
	pipe     *core.PipelineResult
	seeds    []int32
	topK     int
}

type corpusKey struct {
	preset gen.Preset
	scale  float64
	seed   uint64
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[corpusKey]*corpus{}
)

// buildCorpus generates (or returns the cached) corpus for a preset under
// cfg. Generation is deterministic in (preset, scale, seed), so caching
// is safe; attack experiments clone the page graph before mutating.
func buildCorpus(p gen.Preset, cfg Config) (*corpus, error) {
	key := corpusKey{p, cfg.Scale, cfg.Seed}
	corpusMu.Lock()
	if c, ok := corpusCache[key]; ok {
		corpusMu.Unlock()
		return c, nil
	}
	corpusMu.Unlock()

	ds, err := gen.GeneratePreset(p, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", p, err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: source graph for %s: %w", p, err)
	}
	c := &corpus{ds: ds, sg: sg}

	corpusMu.Lock()
	corpusCache[key] = c
	corpusMu.Unlock()
	return c, nil
}

// spamSeeds deterministically samples the fraction of labeled spam
// sources revealed to the proximity walk (the paper seeds 1,000 of its
// 10,315 labeled sources, just under 10%).
func spamSeeds(ds *gen.Dataset, fraction float64, seed uint64) []int32 {
	n := len(ds.SpamSources)
	k := int(float64(n)*fraction + 0.5)
	if k < 1 && n > 0 {
		k = 1
	}
	rng := gen.NewRNG(seed ^ 0x5A17_5EED)
	perm := rng.Perm(n)
	out := make([]int32, 0, k)
	for _, i := range perm[:k] {
		out = append(out, ds.SpamSources[i])
	}
	return out
}

// basePipeline runs (once) the paper's full pipeline on the unattacked
// corpus: spam-proximity from the seed subset, top-k throttling, SRSR.
func (c *corpus) basePipeline(cfg Config) (*core.PipelineResult, []int32, int, error) {
	c.pipeOnce.Do(func() {
		c.seeds = spamSeeds(c.ds, seedFraction, cfg.Seed)
		c.topK = max(1, throttle.DefaultTopK(c.sg.NumSources()))
		c.pipe, c.pipeErr = core.Pipeline(c.sg, core.PipelineConfig{
			Config: core.Config{
				Alpha:   cfg.Alpha,
				Workers: cfg.Workers,
			},
			SpamSeeds: c.seeds,
			TopK:      c.topK,
		})
	})
	return c.pipe, c.seeds, c.topK, c.pipeErr
}
