package analysis_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cercs/iqrudp/internal/analysis"
	"github.com/cercs/iqrudp/internal/analysis/analysistest"
	"github.com/cercs/iqrudp/internal/analysis/borrowcheck"
	"github.com/cercs/iqrudp/internal/analysis/errdrop"
	"github.com/cercs/iqrudp/internal/analysis/lockemit"
	"github.com/cercs/iqrudp/internal/analysis/poolcheck"
	"github.com/cercs/iqrudp/internal/analysis/timeafterloop"
	"github.com/cercs/iqrudp/internal/analysis/tracekeys"
)

// Each analyzer runs over its fixture package and must produce exactly the
// fixture's `// want` expectations.
func TestBorrowcheck(t *testing.T) {
	analysistest.Run(t, borrowcheck.Analyzer, "testdata/src/borrowcheck")
}
func TestErrdrop(t *testing.T)   { analysistest.Run(t, errdrop.Analyzer, "testdata/src/errdrop") }
func TestLockemit(t *testing.T)  { analysistest.Run(t, lockemit.Analyzer, "testdata/src/lockemit") }
func TestPoolcheck(t *testing.T) { analysistest.Run(t, poolcheck.Analyzer, "testdata/src/poolcheck") }
func TestTimeafterloop(t *testing.T) {
	analysistest.Run(t, timeafterloop.Analyzer, "testdata/src/timeafterloop")
	// The raw-timer rule only fires when the package path ends in a
	// wheel-backed suffix, so it gets its own sub-fixture.
	analysistest.Run(t, timeafterloop.Analyzer, "testdata/src/timeafterloop/internal/udpwire")
}
func TestTracekeys(t *testing.T) { analysistest.Run(t, tracekeys.Analyzer, "testdata/src/tracekeys") }

// TestStaleIgnores pins the audit's three verdicts: a suppression covering
// a firing diagnostic is kept, one covering nothing is flagged, and one
// naming a nonexistent analyzer is flagged.
func TestStaleIgnores(t *testing.T) {
	pkgs, err := analysis.Load("testdata/src/staleignores", ".")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.StaleIgnores(pkgs, []*analysis.Analyzer{timeafterloop.Analyzer})
	if err != nil {
		t.Fatalf("auditing: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{
		`stale //iqlint:ignore timeafterloop: no timeafterloop diagnostic on this line; delete the comment`,
		`//iqlint:ignore names unknown analyzer "nosuchcheck"`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSuiteCleanOnTree is the meta-test: the shipped tree must be clean
// under the full suite — every true positive is fixed or carries an
// explicit //iqlint:ignore with a reason. testdata fixtures are outside
// ./... by construction, so their deliberate violations don't count.
func TestSuiteCleanOnTree(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, terr)
		}
	}
	suite := []*analysis.Analyzer{
		borrowcheck.Analyzer, errdrop.Analyzer, lockemit.Analyzer,
		poolcheck.Analyzer, timeafterloop.Analyzer, tracekeys.Analyzer,
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return filepath.Clean(strings.TrimSpace(string(out)))
}
