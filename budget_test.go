package bench

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// linalgLineBudget caps internal/linalg, which holds one implementation
// per concept: one Matrix, one transpose, one fused kernel, one driver,
// one slab opener, one array codec, each generic in the value type (4,078
// lines before they were merged). A second copy of any of them does not
// fit under it.
const linalgLineBudget = 2600

// TestLinalgLineBudget counts the lines of every non-test .go file under
// internal/linalg, whatever its build tags, and fails above the budget.
func TestLinalgLineBudget(t *testing.T) {
	var lines int
	err := filepath.WalkDir(filepath.Join("internal", "linalg"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		lines += bytes.Count(data, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("internal/linalg non-test Go: %d lines (budget %d)", lines, linalgLineBudget)
	if lines > linalgLineBudget {
		t.Errorf("internal/linalg has %d non-test lines, over its budget of %d", lines, linalgLineBudget)
	}
}
