package core

import (
	"fmt"

	"pscluster/internal/cluster"
	"pscluster/internal/obs"
	"pscluster/internal/transport"
)

// This file is the multi-process runner: RunNode executes ONE rank of
// the Figure-2 pipeline over a caller-supplied Fabric. It builds the
// rank with newRank and drives it with runRank, the constructor and
// driver runParallel launches once per rank over one virtual router, so
// a multi-process run over the net fabric reproduces the in-process
// run's checksums, virtual clocks and traffic totals bit for bit.
// cmd/psnode wraps it into a role launcher.

// Role names as they appear in cluster config files and psnode flags,
// re-exported from the cluster package (which owns the config format).
const (
	RoleManager  = cluster.RoleManager
	RoleImageGen = cluster.RoleImageGen
	RoleCalc     = cluster.RoleCalc
)

// RoleForRank returns the canonical role of a rank in the fixed process
// layout (paper §3.1.1): rank 0 manager, rank 1 image generator, ranks
// 2+ calculators.
func RoleForRank(rank int) string {
	switch rank {
	case rankManager:
		return RoleManager
	case rankImageGen:
		return RoleImageGen
	default:
		return RoleCalc
	}
}

// NumRanks returns the process count of a run with nCalc calculators.
func NumRanks(nCalc int) int { return rankCalc0 + nCalc }

// NodeResult is one process's share of a distributed run: its final
// virtual clock and traffic totals, plus the role-specific outputs the
// rank produced. Aggregating every rank's NodeResult reconstructs the
// corresponding in-process Result.
type NodeResult struct {
	Rank int
	Role string

	// Time is the process's final virtual clock.
	Time float64

	// Traffic totals in billed bytes, this rank only.
	MsgsSent  int
	BytesSent int
	MsgsRecv  int
	BytesRecv int

	// FrameChecksums and FrameTimes are the image generator's per-frame
	// content checksums and delivery clocks (nil on other roles). The
	// checksums are the cross-fabric acceptance signal: a net run must
	// reproduce the in-process run's sequence exactly.
	FrameChecksums []uint64
	FrameTimes     []float64

	// CalcLoad is a calculator's final stored particle count.
	CalcLoad int

	// LBRounds is the manager's count of balancing rounds that issued
	// at least one order.
	LBRounds int
}

// RunNode executes rank's role of the scenario over fab, blocking until
// the run completes or aborts. The fabric must already be connected to
// every peer (for the net fabric: listening, with the peer table set);
// RunNode does not Close it — teardown order across processes is the
// caller's call. With a non-nil sink the rank records its Figure-2
// spans and publishes live per-frame telemetry exactly like
// RunParallelServed; recording never advances virtual clocks, so the
// NodeResult is bit-identical either way.
//
// Any error or panic aborts the fabric, which unblocks the peers'
// pending operations so the whole cluster tears down rather than hangs.
func RunNode(scn Scenario, cl *cluster.Cluster, nCalc, rank int, fab transport.Fabric, sink obs.FrameSink) (*NodeResult, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if nCalc < 1 {
		return nil, fmt.Errorf("core: need at least one calculator")
	}
	if rank < 0 || rank >= NumRanks(nCalc) {
		return nil, fmt.Errorf("core: rank %d outside run of %d processes", rank, NumRanks(nCalc))
	}
	if fab.Rank() != rank {
		return nil, fmt.Errorf("core: fabric is rank %d, asked to run rank %d", fab.Rank(), rank)
	}
	place, err := cl.Place(nCalc)
	if err != nil {
		return nil, err
	}

	var rec *obs.Recorder
	if sink != nil {
		rec = rankRecorder(rank, sink)
	}
	p, err := newRank(&scn, place, nCalc, rank, fab, rec)
	if err != nil {
		return nil, err
	}
	if err := runRank(p); err != nil {
		return nil, err
	}

	nr := &NodeResult{
		Rank: rank, Role: RoleForRank(rank),
		Time: fab.Clock().Now(),
	}
	st := fab.Stats()
	nr.MsgsSent, nr.BytesSent = st.MsgsSent, st.BytesSent
	nr.MsgsRecv, nr.BytesRecv = st.MsgsRecv, st.BytesRecv
	switch q := p.(type) {
	case *managerProc:
		nr.LBRounds = q.lbRounds
	case *imageGenProc:
		nr.FrameChecksums = q.checksums
		nr.FrameTimes = q.frameTimes
	case *calcProc:
		nr.CalcLoad = storedLen(q.stores)
	}
	return nr, nil
}
