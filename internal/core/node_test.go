package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pscluster/internal/cluster"
	"pscluster/internal/transport"
)

// runNodesLoopback executes the scenario as NumRanks(nCalc) RunNode
// calls over TCP loopback fabrics — one goroutine per rank, the
// in-process stand-in for the psnode processes — and returns the
// per-rank results.
func runNodesLoopback(t *testing.T, scn Scenario, nCalc int) []*NodeResult {
	t.Helper()
	cl := testCluster(4)
	place, err := cl.Place(nCalc)
	if err != nil {
		t.Fatal(err)
	}
	cost := transport.DefaultCost(place, cl.Net)
	n := NumRanks(nCalc)
	fabs := make([]*transport.NetFabric, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		f, err := transport.ListenNet(r, n, "127.0.0.1:0", cost, transport.NetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fabs[r], addrs[r] = f, f.Addr()
	}
	for _, f := range fabs {
		if err := f.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]*NodeResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = RunNode(scn, cl, nCalc, r, fabs[r], nil)
		}(r)
	}
	wg.Wait()
	for _, f := range fabs {
		f.Close()
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	return results
}

// The acceptance property of the whole fabric abstraction: a run split
// across net fabrics must reproduce the in-process run bit for bit —
// same frame checksums, same frame delivery clocks, same per-process
// virtual times, same traffic totals.
func TestRunNodeLoopbackBitIdenticalToInProcess(t *testing.T) {
	for _, lb := range []LBMode{StaticLB, DynamicLB} {
		t.Run(fmt.Sprint(lb), func(t *testing.T) {
			scn := miniSnow(lb, FiniteSpace)
			scn.CollectParticles = false
			const nCalc = 3

			want, err := RunParallel(scn, testCluster(4), nCalc)
			if err != nil {
				t.Fatal(err)
			}
			nodes := runNodesLoopback(t, scn, nCalc)

			img := nodes[rankImageGen]
			if !reflect.DeepEqual(img.FrameChecksums, want.FrameChecksums) {
				t.Errorf("frame checksums diverge:\n net %v\nvirt %v",
					img.FrameChecksums, want.FrameChecksums)
			}
			if !reflect.DeepEqual(img.FrameTimes, want.FrameTimes) {
				t.Errorf("frame times diverge:\n net %v\nvirt %v",
					img.FrameTimes, want.FrameTimes)
			}
			var sent, recv, bsent, brecv int
			for r, nr := range nodes {
				if nr.Rank != r || nr.Role != RoleForRank(r) {
					t.Errorf("rank %d labeled (%d, %s)", r, nr.Rank, nr.Role)
				}
				if nr.Time != want.PerProcTime[r] {
					t.Errorf("rank %d clock %v, in-process %v", r, nr.Time, want.PerProcTime[r])
				}
				sent += nr.MsgsSent
				recv += nr.MsgsRecv
				bsent += nr.BytesSent
				brecv += nr.BytesRecv
			}
			if sent != want.MsgsSent || bsent != want.BytesSent {
				t.Errorf("send totals (%d msgs, %d bytes), in-process (%d, %d)",
					sent, bsent, want.MsgsSent, want.BytesSent)
			}
			if recv != want.MsgsRecv || brecv != want.BytesRecv {
				t.Errorf("recv totals (%d msgs, %d bytes), in-process (%d, %d)",
					recv, brecv, want.MsgsRecv, want.BytesRecv)
			}
			var loads []int
			for _, nr := range nodes[rankCalc0:] {
				loads = append(loads, nr.CalcLoad)
			}
			if !reflect.DeepEqual(loads, want.CalcLoads) {
				t.Errorf("calc loads %v, in-process %v", loads, want.CalcLoads)
			}
			if nodes[rankManager].LBRounds != want.LBRounds {
				t.Errorf("LB rounds %d, in-process %d", nodes[rankManager].LBRounds, want.LBRounds)
			}
		})
	}
}

func TestRunNodeValidatesInputs(t *testing.T) {
	scn := miniSnow(StaticLB, FiniteSpace)
	cl := testCluster(4)
	place, _ := cl.Place(2)
	cost := transport.DefaultCost(place, cl.Net)
	fab, err := transport.ListenNet(0, 4, "127.0.0.1:0", cost, transport.NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	if _, err := RunNode(scn, cl, 2, 9, fab, nil); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := RunNode(scn, cl, 2, 1, fab, nil); err == nil {
		t.Error("rank/fabric mismatch accepted")
	}
	if _, err := RunNode(scn, cl, 0, 0, fab, nil); err == nil {
		t.Error("zero calculators accepted")
	}
}

// finishesWithin runs fn and fails the test if it has not returned
// within a minute: a launcher that mishandles a failing rank hangs
// rather than reporting anything.
func finishesWithin(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("run did not tear down after a rank failed")
	}
}

// A rank that fails as it starts must tear the whole run down: the
// in-process launchers return that rank's own error rather than
// ErrAborted, and under RunNode the failing rank reports its error
// while every other rank returns ErrAborted instead of blocking.
func TestFailingRankAbortsRun(t *testing.T) {
	// An output directory under a regular file cannot be created, so
	// the image generator fails before its first frame.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	scn := miniSnow(StaticLB, FiniteSpace)
	scn.Render.Rasterize = true
	scn.Render.OutputDir = filepath.Join(file, "frames")
	const nCalc = 2
	cl := testCluster(4)
	ownFailure := func(err error) bool {
		return err != nil && !errors.Is(err, transport.ErrAborted) &&
			strings.Contains(err.Error(), "creating output dir")
	}

	finishesWithin(t, func() {
		if _, err := RunParallel(scn, cl, nCalc); !ownFailure(err) {
			t.Errorf("RunParallel: %v, want the image generator's output-dir error", err)
		}
	})
	finishesWithin(t, func() {
		if _, err := RunSimsBaseline(scn, cl, nCalc); !ownFailure(err) {
			t.Errorf("RunSimsBaseline: %v, want the image generator's output-dir error", err)
		}
	})

	for r, err := range runNodeRanks(t, scn, cl, nCalc) {
		if r == rankImageGen {
			if !ownFailure(err) {
				t.Errorf("RunNode rank %d: %v, want its output-dir error", r, err)
			}
		} else if !errors.Is(err, transport.ErrAborted) {
			t.Errorf("RunNode rank %d: %v, want ErrAborted", r, err)
		}
	}
}

// runNodeRanks runs every rank of scn through RunNode over one virtual
// router, each on its own goroutine, and returns the ranks' errors.
func runNodeRanks(t *testing.T, scn Scenario, cl *cluster.Cluster, nCalc int) []error {
	t.Helper()
	place, err := cl.Place(nCalc)
	if err != nil {
		t.Fatal(err)
	}
	router := transport.NewRouter(place, cl.Net)
	errs := make([]error, NumRanks(nCalc))
	finishesWithin(t, func() {
		var wg sync.WaitGroup
		for r := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[r] = RunNode(scn, cl, nCalc, r, router.Endpoint(r), nil)
			}()
		}
		wg.Wait()
	})
	return errs
}

// A frame write that fails mid-run tears the run down too. The image
// generator hashes and writes each frame after it has released the
// frame's barrier, so when frame 2's file cannot be created the other
// ranks are already computing frame 3: they must be unblocked, and the
// image generator's own error must be the run's error. With pipelined
// frames nobody waits for the image generator, so the other ranks may
// also have finished cleanly.
func TestFailingFrameWriteAbortsRun(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			dir := t.TempDir()
			// A directory where frame 2's file belongs: os.Create fails.
			if err := os.Mkdir(filepath.Join(dir, "frame-0002.ppm"), 0o755); err != nil {
				t.Fatal(err)
			}
			scn := miniSnow(StaticLB, FiniteSpace)
			scn.Render.Rasterize = true
			scn.Render.OutputDir = dir
			scn.PipelineFrames = pipelined
			const nCalc = 2
			cl := testCluster(4)
			ownFailure := func(err error) bool {
				return err != nil && !errors.Is(err, transport.ErrAborted) &&
					strings.Contains(err.Error(), "creating frame file")
			}

			finishesWithin(t, func() {
				if _, err := RunParallel(scn, cl, nCalc); !ownFailure(err) {
					t.Errorf("RunParallel: %v, want the image generator's frame-file error", err)
				}
			})
			finishesWithin(t, func() {
				if _, err := RunSimsBaseline(scn, cl, nCalc); !ownFailure(err) {
					t.Errorf("RunSimsBaseline: %v, want the image generator's frame-file error", err)
				}
			})
			for r, err := range runNodeRanks(t, scn, cl, nCalc) {
				switch {
				case r == rankImageGen:
					if !ownFailure(err) {
						t.Errorf("RunNode rank %d: %v, want its frame-file error", r, err)
					}
				case errors.Is(err, transport.ErrAborted), pipelined && err == nil:
					// torn down, or finished before the failure
				default:
					t.Errorf("RunNode rank %d: %v, want ErrAborted", r, err)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "frame-0001.ppm")); err != nil {
				t.Errorf("frame 1 was not written before the failure: %v", err)
			}
		})
	}
}
