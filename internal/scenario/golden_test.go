package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pscluster/internal/core"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden/*.json from the current codec")

// goldenEncodings returns every document the codec is pinned on, by
// golden file name: fullScenario's encoding, and the re-encoding of
// each example scenario file next to its decoded scenario.
func goldenEncodings(t *testing.T) (docs map[string][]byte, examples map[string]core.Scenario) {
	t.Helper()
	full, err := Encode(fullScenario())
	if err != nil {
		t.Fatal(err)
	}
	docs = map[string][]byte{"full.json": full}
	examples = map[string]core.Scenario{}
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		scn, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		re, err := Encode(scn)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := "example_" + filepath.Base(path)
		docs[name], examples[name] = re, scn
	}
	return docs, examples
}

// TestGoldenEncodings pins the codec's output byte for byte against
// testdata/golden: a codec change that means to keep every document
// the same must leave these files untouched (-update-golden rewrites
// them, only for a change that means to move a document). Each golden
// document is also a fixed point of decode and encode, and each
// example scenario validates and runs two frames sequentially.
func TestGoldenEncodings(t *testing.T) {
	docs, examples := goldenEncodings(t)
	for name, got := range docs {
		path := filepath.Join("testdata", "golden", name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create it)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding differs from %s:\n%s", name, path, got)
		}
		scn, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: golden document does not decode: %v", name, err)
		}
		if re, err := Encode(scn); err != nil || !bytes.Equal(re, want) {
			t.Errorf("%s: golden document is not a fixed point of Decode and Encode (err %v)", name, err)
		}
	}
	for name, scn := range examples {
		if err := scn.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		scn.Frames = 2
		if _, err := core.RunSequential(scn, testNode(), testCompiler()); err != nil {
			t.Errorf("%s: RunSequential: %v", name, err)
		}
	}
}
