package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name          string
		scale, format string
		want          string // substring of the error; "" = valid
	}{
		{"defaults", "paper", "text", ""},
		{"small-csv", "small", "csv", ""},
		{"json", "small", "json", ""},
		{"scale-unknown", "smal", "text", "-scale"},
		{"scale-empty", "", "text", "-scale"},
		{"format-unknown", "small", "jsn", "-format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.scale, tc.format)
			if tc.want == "" && err != nil {
				t.Fatalf("validateFlags(%q, %q) = %v, want nil", tc.scale, tc.format, err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("validateFlags(%q, %q) = %v, want an error naming %s", tc.scale, tc.format, err, tc.want)
			}
		})
	}
}
