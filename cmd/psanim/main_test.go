package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	defaults := flagValues{lb: "dynamic", space: "finite", net: "myrinet", decomp: "slab"}
	with := func(edit func(*flagValues)) flagValues {
		f := defaults
		edit(&f)
		return f
	}
	cases := []struct {
		name  string
		flags flagValues
		want  string // substring of the error; "" = valid
	}{
		{"defaults", defaults, ""},
		{"serve-with-frames", with(func(f *flagValues) { f.serve, f.frames = ":9090", 20 }), ""},
		{"serve-without-frames", with(func(f *flagValues) { f.serve = ":9090" }), "-serve"},
		{"serve-negative-frames", with(func(f *flagValues) { f.serve, f.frames = ":9090", -1 }), "-serve"},
		{"metrics-trace-distinct", with(func(f *flagValues) { f.metricsOut, f.traceOut = "m.prom", "t.json" }), ""},
		{"metrics-trace-clobber", with(func(f *flagValues) { f.metricsOut, f.traceOut = "out.json", "out.json" }), "-metrics"},
		{"trace-only", with(func(f *flagValues) { f.traceOut = "t.json" }), ""},
		{"metrics-only", with(func(f *flagValues) { f.metricsOut = "m.prom" }), ""},
		{"lb-static", with(func(f *flagValues) { f.lb = "static" }), ""},
		{"lb-unknown", with(func(f *flagValues) { f.lb = "statc" }), "-lb"},
		{"space-infinite", with(func(f *flagValues) { f.space = "infinite" }), ""},
		{"space-unknown", with(func(f *flagValues) { f.space = "infinte" }), "-space"},
		{"net-fast-ethernet", with(func(f *flagValues) { f.net = "fast-ethernet" }), ""},
		{"net-unknown", with(func(f *flagValues) { f.net = "foo" }), "-net"},
		{"decomp-voronoi", with(func(f *flagValues) { f.decomp = "voronoi" }), ""},
		{"decomp-unknown", with(func(f *flagValues) { f.decomp = "fractal" }), "-decomp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.flags)
			if tc.want == "" && err != nil {
				t.Fatalf("validateFlags(%+v) = %v, want nil", tc.flags, err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("validateFlags(%+v) = %v, want an error naming %s", tc.flags, err, tc.want)
			}
		})
	}
}
