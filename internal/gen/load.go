package gen

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"sourcerank/internal/pagegraph"
)

// Load is the corpus a command ranks, serves or inspects: the graphgen
// file at pagesPath, or, when pagesPath is empty, the named preset
// generated at scale and seed with its planted spam labels. A file
// carries no labels (a command reads them with ReadSpamLabels) and is
// named by its path. The load stats are nil for a preset: nothing was
// read.
func Load(pagesPath, preset string, scale float64, seed uint64) (*Dataset, *pagegraph.LoadStats, error) {
	if pagesPath == "" {
		p := Preset(preset)
		if _, ok := TableOneSources[p]; !ok {
			return nil, nil, fmt.Errorf("unknown preset %q", preset)
		}
		ds, err := GeneratePreset(p, scale, seed)
		return ds, nil, err
	}
	pg, st, err := pagegraph.ReadFile(pagesPath)
	if err != nil {
		return nil, nil, err
	}
	return &Dataset{Pages: pg, Name: pagesPath}, &st, nil
}

// ReadSpamLabels parses a label file, one source ID per line, skipping
// blank lines and # comments and rejecting IDs outside [0, numSources).
// The set comes back in canonical form — ascending, each ID once — so a
// re-sorted or duplicated file is the same label set to every consumer.
func ReadSpamLabels(path string, numSources int) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spam []int32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, err := strconv.Atoi(line)
		if err != nil || id < 0 || id >= numSources {
			return nil, fmt.Errorf("bad spam label %q", line)
		}
		spam = append(spam, int32(id))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	slices.Sort(spam)
	return slices.Compact(spam), nil
}
