package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"pscluster/internal/experiments"
)

var updateTables = flag.Bool("update-tables", false,
	"rewrite testdata/tables_small.txt and testdata/f2_small.json from this tree's runs")

// TestPaperTablesGolden pins the paper's reproduced numbers across
// commits: `psbench -table all -scale small` and `-table F2 -scale
// small -format json` must print exactly the committed bytes. Every
// virtual clock, exchange count and traced phase of the small tables
// reaches this output, so an engine change that claims to be
// behaviour-neutral must leave both files untouched. Rewrite them with
// -update-tables only for a change that means to move a table, and say
// which rows moved and why.
func TestPaperTablesGolden(t *testing.T) {
	cases := []struct{ name, table, format, file string }{
		{"tables", "all", "text", "testdata/tables_small.txt"},
		{"F2", "F2", "json", "testdata/f2_small.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			if err := writeTables(&got, tc.table, experiments.Small, tc.format); err != nil {
				t.Fatal(err)
			}
			if *updateTables {
				if err := os.WriteFile(tc.file, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
				if !bytes.Equal(gotLines[i], wantLines[i]) {
					t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", tc.file, i+1, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", tc.file, len(gotLines), len(wantLines))
		})
	}
}
