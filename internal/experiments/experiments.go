// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 analysis figures and §6 experiments) on the synthetic
// corpora of internal/gen. Each experiment returns a typed Table that the
// cmd/experiments CLI renders and bench_test.go exercises; EXPERIMENTS.md
// records measured-vs-paper outcomes.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"sourcerank/internal/gen"
)

// Table is a rendered experimental artifact: one per paper table/figure.
type Table struct {
	ID      string // experiment identifier, e.g. "fig5"
	Title   string // human-readable description
	Columns []string
	Rows    [][]string
	// Notes carries the comparison against the paper's reported result.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Config drives the simulation-backed experiments. Zero values select
// paper-faithful defaults at a laptop-friendly scale.
type Config struct {
	// Scale multiplies the Table 1 dataset sizes; 0 defaults to 0.02
	// (UK2002 ≈ 1,964 sources). Figure 5 benefits from 0.05+.
	Scale float64
	// Seed fixes the corpora and target sampling; 0 defaults to 1.
	Seed uint64
	// Alpha is the mixing parameter; 0 defaults to 0.85.
	Alpha float64
	// Workers bounds solver parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Targets is the number of attack targets sampled per dataset for
	// Figures 6–7; 0 defaults to the paper's 5.
	Targets int
	// Datasets restricts which presets run; empty means all three.
	Datasets []gen.Preset
}

// seedFraction is the share of labeled spam revealed to the
// spam-proximity walk: the paper's <10% (1,000 of 10,315).
const seedFraction = 0.097

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Alpha == 0 {
		c.Alpha = 0.85
	}
	if c.Targets <= 0 {
		c.Targets = 5
	}
	if len(c.Datasets) == 0 {
		c.Datasets = gen.Presets
	}
	return c
}

// Runner is an experiment entry point.
type Runner func(Config) (*Table, error)

// Registry maps experiment IDs to their runners, in paper order.
var Registry = []struct {
	ID     string
	Run    Runner
	Veloce bool // cheap closed-form experiment (no corpus generation)
}{
	{"table1", Table1, false},
	{"fig2", Fig2, true},
	{"fig3", Fig3, true},
	{"fig4a", Fig4a, true},
	{"fig4b", Fig4b, true},
	{"fig4c", Fig4c, true},
	{"fig5", Fig5, false},
	{"fig6", Fig6, false},
	{"fig7", Fig7, false},
	{"ablation-consensus", AblationConsensus, false},
	{"ablation-throttle", AblationThrottle, false},
	{"ablation-solver", AblationSolver, false},
	{"ablation-warmstart", AblationWarmStart, false},
	{"ablation-granularity", AblationGranularity, false},
	{"roi", ROI, true},
	{"detection", Detection, false},
	{"stability", Stability, false},
}

// ErrUnknown reports an unknown experiment ID.
var ErrUnknown = errors.New("experiments: unknown experiment")

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (*Table, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknown, id, strings.Join(IDs(), ", "))
}

// IDs lists the registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return ids
}

// f2 formats a float with two decimals; f1 with one.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
