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

// serverLineBudget caps internal/server at its count once the response
// renderer became the only one (2,748 lines while a per-request encoder
// stood beside it). A second renderer does not fit under it.
const serverLineBudget = 2500

// TestLinalgLineBudget counts the lines of every non-test .go file under
// internal/linalg, whatever its build tags, and fails above the budget.
func TestLinalgLineBudget(t *testing.T) {
	checkLineBudget(t, filepath.Join("internal", "linalg"), linalgLineBudget)
}

// TestServerLineBudget does the same for internal/server.
func TestServerLineBudget(t *testing.T) {
	checkLineBudget(t, filepath.Join("internal", "server"), serverLineBudget)
}

// checkLineBudget fails t when the non-test .go files under dir hold more
// than budget lines.
func checkLineBudget(t *testing.T, dir string, budget int) {
	var lines int
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
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
	t.Logf("%s non-test Go: %d lines (budget %d)", dir, lines, budget)
	if lines > budget {
		t.Errorf("%s has %d non-test lines, over its budget of %d", dir, lines, budget)
	}
}
