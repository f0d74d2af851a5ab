package catapult_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAPILockOracleTestOnly fails when a production (non-_test.go) Go file
// of the module imports repro/internal/oracle. The oracle package holds
// the reference matchers the differential tests compare against; a
// production import would fork a matcher into two code paths again.
func TestAPILockOracleTestOnly(t *testing.T) {
	const oraclePath = "repro/internal/oracle"
	oracleDir := filepath.Join("internal", "oracle")
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == oracleDir {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == oraclePath {
				t.Errorf("%s imports %s; only _test.go files may", path, oraclePath)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no production Go files found; run from the module root")
	}
}
