package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"pscluster"
	"pscluster/bench"
)

// Output verification. One operation is one frame: a run's frames all
// pass or are counted as failed against the frames attempted.
//
//   - At the default seed and full scale, the digest of the whole
//     FrameChecksums series must equal the committed golden digest.
//   - At any seed, the first prefixFrames checksums must equal those of
//     an independent run of the same scenario through the reference
//     engine: RunSequential for parallel workloads (the engines are
//     bit-equivalent), RunParallel for the sequential workload and for
//     scenarios with GhostCollisions, which waive sequential equivalence.

const (
	defaultSeed  = 1
	prefixFrames = 8
)

// digest condenses a checksum series to one hex string.
func digest(sums []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range sums {
		binary.LittleEndian.PutUint64(b[:], s)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFile is the layout of bench/golden.json.
type goldenFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(bench.Golden, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// verifier checks one workload's runs at one seed and scale.
type verifier struct {
	golden string   // expected full-series digest, "" when none applies
	prefix []uint64 // reference checksums of the first frames
}

// newVerifier computes the reference prefix for a spec and looks up the
// golden digest when one applies.
func newVerifier(w *workloadDef, spec []byte, seed uint64, sc scale) (*verifier, error) {
	r, err := decodeSpec(spec)
	if err != nil {
		return nil, err
	}
	v := &verifier{}
	if seed == defaultSeed && sc == scaleFull {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		if g.Seed == seed {
			v.golden = g.Digests[w.Name]
		}
	}
	scn := r.scn
	scn.Frames = min(prefixFrames, scn.Frames)
	var res *pscluster.Result
	if r.spec.Engine == engineSequential || scn.GhostCollisions {
		cl, nCalc := r.parallelCluster()
		res, err = pscluster.RunParallel(scn, cl, nCalc)
	} else {
		res, err = pscluster.RunSequential(scn, r.seqNode, r.comp)
	}
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", w.Name, err)
	}
	v.prefix = res.FrameChecksums
	return v, nil
}

// check returns how many of a run's frames failed, and why.
func (v *verifier) check(w *workloadDef, sums []uint64) (int, error) {
	if len(sums) < len(v.prefix) {
		return max(len(sums), len(v.prefix)), fmt.Errorf("%s: run produced %d frames, reference prefix has %d", w.Name, len(sums), len(v.prefix))
	}
	for f, want := range v.prefix {
		if sums[f] != want {
			// Frames depend on their predecessors: everything from the
			// first divergence on is wrong.
			return len(sums) - f, fmt.Errorf("%s: frame %d checksum %016x, reference engine says %016x", w.Name, f, sums[f], want)
		}
	}
	if v.golden != "" {
		if got := digest(sums); got != v.golden {
			return len(sums), fmt.Errorf("%s: checksum series digest %s, golden %s", w.Name, got, v.golden)
		}
	}
	return 0, nil
}
