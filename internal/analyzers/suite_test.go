package analyzers_test

import (
	"testing"

	"pscluster/internal/analyzers"
	"pscluster/internal/analyzers/analyzertest"
)

// Each analyzer is exercised over two kinds of testdata packages:
// engine-named ones ("core") where the invariant binds, and neutral
// ones ("util") proving the scope rules. The trees contain flagged,
// clean, and annotation-suppressed sites; see analyzertest for the
// `// want` convention.

func TestDeterminismEngine(t *testing.T) {
	analyzertest.Run(t, analyzers.Determinism, "testdata/determinism/core")
}

func TestDeterminismDomain(t *testing.T) {
	analyzertest.Run(t, analyzers.Determinism, "testdata/determinism/domain")
}

func TestDeterminismNonEngine(t *testing.T) {
	analyzertest.Run(t, analyzers.Determinism, "testdata/determinism/util")
}

func TestBufOwnership(t *testing.T) {
	analyzertest.Run(t, analyzers.BufOwnership, "testdata/bufownership/own")
}

func TestResourceLifetime(t *testing.T) {
	analyzertest.Run(t, analyzers.ResourceLifetime, "testdata/resourcelifetime/rl")
}

// TestResourceLifetimeScope proves the lifetime analyzer ignores
// packages outside the fabric plane: the same hazard shapes in a
// neutral package produce nothing.
func TestResourceLifetimeScope(t *testing.T) {
	analyzertest.Run(t, analyzers.ResourceLifetime, "testdata/resourcelifetime/util")
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analyzers.Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q: incomplete definition", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 3 {
		t.Errorf("suite has %d analyzers, want 3", len(seen))
	}
}
