package experiments

import (
	"fmt"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
	"sourcerank/internal/urlutil"
)

// AblationGranularity compares the two source definitions the paper's
// §3.1 mentions — host-level grouping (its default) versus registered-
// domain grouping — on a corpus where 20% of hosts are subdomains of a
// sibling host. Coarser sources absorb more of the Web into each node:
// the table reports the resulting source counts and how well each
// granularity suppresses spam.
func AblationGranularity(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	gcfg := gen.PresetConfig(gen.WB2001, cfg.Scale, cfg.Seed)
	gcfg.SubdomainProb = 0.2
	ds, err := gen.Generate(gcfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ablation-granularity",
		Title:   "Source granularity: host vs registered domain (§3.1), WB2001-sim with 20% subdomain hosts",
		Columns: []string{"granularity", "sources", "edges/source", "mean spam pct (SRSR)"},
		Notes: []string{
			"§3.1: 'a source could be defined using the host or domain information associated with each Web page'",
		},
	}

	run := func(label string, pages *pagegraph.Graph, spamIDs []int32) error {
		sg, err := source.Build(pages, source.Options{})
		if err != nil {
			return err
		}
		seeds := spamIDs
		if len(seeds) > 10 {
			seeds = seeds[:len(seeds)/10]
		}
		pipe, err := core.Pipeline(sg, core.PipelineConfig{
			Config:    core.Config{Alpha: cfg.Alpha, Workers: cfg.Workers},
			SpamSeeds: seeds,
			TopK:      throttle.DefaultTopK(sg.NumSources()),
		})
		if err != nil {
			return err
		}
		pct, err := rankeval.MeanPercentileOf(pipe.Scores, spamIDs)
		if err != nil {
			return err
		}
		t.AddRow(label,
			fmt.Sprintf("%d", sg.NumSources()),
			f1(float64(sg.NumEdges)/float64(sg.NumSources())),
			f1(pct))
		return nil
	}

	// Host granularity: the corpus as generated.
	if err := run("host", ds.Pages, ds.SpamSources); err != nil {
		return nil, err
	}

	// Domain granularity: regroup hosts by registered domain and remap
	// the spam labels through the merge.
	merged, mapping, err := ds.Pages.Regroup(urlutil.RegisteredDomain)
	if err != nil {
		return nil, err
	}
	seen := map[int32]bool{}
	var domainSpam []int32
	for _, s := range ds.SpamSources {
		m := int32(mapping[s])
		if !seen[m] {
			seen[m] = true
			domainSpam = append(domainSpam, m)
		}
	}
	if err := run("domain", merged, domainSpam); err != nil {
		return nil, err
	}
	return t, nil
}
