// Package bench holds the benchmark's committed reference data. The
// benchmark program itself is the main package in ./psperf.
package bench

import _ "embed"

// Golden is golden.json: per workload, the digest of the full
// FrameChecksums series at the default seed.
//
//go:embed golden.json
var Golden []byte
