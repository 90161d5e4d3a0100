package lint_test

import (
	"strings"
	"testing"

	"sigil/internal/lint"
	"sigil/internal/lint/analysistest"
	"sigil/internal/lint/loader"
)

func TestPanicfree(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Panicfree,
		"panicfree/internal/core", "panicfree/other")
}

func TestSinkerr(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Sinkerr,
		"sinkerr/internal/trace", "sinkerr/internal/safeio",
		"sinkerr/internal/faultinject", "sinkerr/cmd/tool")
}

func TestDetorder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Detorder,
		"detorder/internal/report", "detorder/other")
}

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Hotalloc,
		"hotalloc/internal/core")
}

func TestGoleak(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Goleak,
		"goleak/internal/core", "goleak/nowait")
}

// TestSuiteCleanOnTree is the acceptance gate in test form: the shipped
// tree must produce zero findings, so any regression in a guarded
// invariant fails `go test` as well as scripts/check.sh.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("re-lints the whole module")
	}
	pkgs, err := loader.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := lint.Apply(pkgs, lint.All)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		var sb strings.Builder
		for _, f := range findings {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		t.Errorf("sigil-lint findings on the shipped tree:\n%s", sb.String())
	}
}
