package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pscluster/internal/bufpool"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// rasterSnow is miniSnow with rasterization on at dimensions that do
// not divide evenly by the tested worker widths, so row ownership is
// exercised at ragged edges.
func rasterSnow(lb LBMode, mode SpaceMode) Scenario {
	scn := miniSnow(lb, mode)
	scn.Render.Rasterize = true
	scn.Render.Width, scn.Render.Height = 48, 41
	return scn
}

// The tentpole invariant of the tiled render plane: the render-worker
// width is invisible to the model. For every camera × schedule ×
// PipelineFrames setting, runs at 2 and 8 splat workers must reproduce
// the serial run exactly — frame checksums, virtual times, traffic,
// trace events, and the full profiled F2 output byte for byte.
func TestTiledRenderBitNeutral(t *testing.T) {
	for _, sched := range []Schedule{PerSystemSchedule, BatchedSchedule} {
		for _, persp := range []bool{false, true} {
			for _, pipe := range []bool{false, true} {
				cam := "ortho"
				if persp {
					cam = "persp"
				}
				t.Run(fmt.Sprintf("%v/%s/pipeline=%v", sched, cam, pipe), func(t *testing.T) {
					base := rasterSnow(DynamicLB, FiniteSpace)
					base.Schedule = sched
					base.Render.Perspective = persp
					base.PipelineFrames = pipe
					base.Trace = true

					r1, p1, err := RunParallelProfiled(base, testCluster(4), 3)
					if err != nil {
						t.Fatal(err)
					}
					f2base := marshalF2(t, r1, p1)

					for _, workers := range []int{2, 8} {
						scn := base
						scn.Render.RenderWorkers = workers
						rw, pw, err := RunParallelProfiled(scn, testCluster(4), 3)
						if err != nil {
							t.Fatal(err)
						}
						compareResults(t, r1, rw)
						if r1.Time != rw.Time {
							t.Errorf("render-workers=%d virtual time: %v vs %v", workers, r1.Time, rw.Time)
						}
						if !reflect.DeepEqual(r1.PerProcTime, rw.PerProcTime) {
							t.Errorf("render-workers=%d per-proc times diverge", workers)
						}
						if r1.MsgsSent != rw.MsgsSent || r1.BytesSent != rw.BytesSent ||
							r1.MsgsRecv != rw.MsgsRecv || r1.BytesRecv != rw.BytesRecv {
							t.Errorf("render-workers=%d traffic diverges", workers)
						}
						if !reflect.DeepEqual(r1.Events, rw.Events) {
							t.Errorf("render-workers=%d trace events diverge", workers)
						}
						if f2 := marshalF2(t, rw, pw); !bytes.Equal(f2base, f2) {
							t.Errorf("render-workers=%d profiled F2 output diverges from serial", workers)
						}
					}
				})
			}
		}
	}
}

// Overlapped frame render is invisible to frame content: PipelineFrames
// moves the rasterize/checksum/write to the plane's finisher goroutine,
// but the checksums must match the synchronous run (virtual times
// legitimately differ — the barrier is gone).
func TestPipelinedRenderSameChecksums(t *testing.T) {
	base := rasterSnow(DynamicLB, FiniteSpace)
	base.Render.RenderWorkers = 4
	sync, err := RunParallel(base, testCluster(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	piped := base
	piped.PipelineFrames = true
	over, err := RunParallel(piped, testCluster(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sync.FrameChecksums, over.FrameChecksums) {
		t.Errorf("pipelined frame checksums diverge from synchronous:\n%v\n%v",
			sync.FrameChecksums, over.FrameChecksums)
	}
}

// The framebuffer's Clear erases only the spans the previous frame in
// that buffer dirtied. Synchronous runs reuse one buffer (anything left
// behind would come from frame f-1), pipelined runs alternate two (from
// frame f-2), and the picture changes every frame — so equal checksums
// over enough frames for each buffer to be reused several times mean
// neither path carries stale pixels or spans forward.
func TestPipelinedBuffersCarryNoStalePixels(t *testing.T) {
	base := rasterSnow(DynamicLB, FiniteSpace)
	base.Frames = 7
	want, err := RunParallel(base, testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	for f := 1; f < len(want.FrameChecksums); f++ {
		if want.FrameChecksums[f] == want.FrameChecksums[f-1] {
			t.Fatalf("frames %d and %d hash alike: the scenario cannot expose stale pixels", f-1, f)
		}
	}
	for _, workers := range []int{1, 3} {
		scn := base
		scn.Render.RenderWorkers = workers
		scn.PipelineFrames = true
		got, err := RunParallel(scn, testCluster(2), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.FrameChecksums, got.FrameChecksums) {
			t.Errorf("render-workers=%d pipelined checksums diverge from the one-buffer run:\n%v\n%v",
				workers, want.FrameChecksums, got.FrameChecksums)
		}
	}
}

// Written PPM bytes are identical at every render width, with and
// without the overlapped double-buffer.
func TestTiledRenderPPMBytesIdentical(t *testing.T) {
	render := func(workers int, pipe bool) map[string][]byte {
		dir := t.TempDir()
		scn := rasterSnow(StaticLB, FiniteSpace)
		scn.Frames = 3
		scn.Render.OutputDir = dir
		scn.Render.RenderWorkers = workers
		scn.PipelineFrames = pipe
		if _, err := RunParallel(scn, testCluster(2), 2); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = data
		}
		return out
	}
	want := render(1, false)
	if len(want) != 3 {
		t.Fatalf("%d frames written, want 3", len(want))
	}
	for _, c := range []struct {
		workers int
		pipe    bool
	}{{4, false}, {4, true}, {3, true}} {
		got := render(c.workers, c.pipe)
		if len(got) != len(want) {
			t.Fatalf("workers=%d pipeline=%v: %d frames, want %d", c.workers, c.pipe, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(data, got[name]) {
				t.Errorf("workers=%d pipeline=%v: %s bytes differ", c.workers, c.pipe, name)
			}
		}
	}
}

// The render send path's acceptance bar (ROADMAP item 4 holdover):
// once the pool is warm, encoding a store's render records — and the
// batched schedule's combine — allocates nothing.
func TestRenderSendPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		// The race runtime makes sync.Pool drop a fraction of Puts on
		// purpose, so pool-hit alloc counts are noise under -race.
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	st := particle.NewColumnStore(geom.AxisX, -10, 10, 8)
	for i := 0; i < 300; i++ {
		p := mkParticle(float64(i%20) - 10)
		st.Add(p)
	}

	// Warm the size classes once.
	bufpool.Put(encodeRenderSet(st))
	allocs := testing.AllocsPerRun(200, func() {
		bufpool.Put(encodeRenderSet(st))
	})
	if allocs != 0 {
		t.Errorf("encodeRenderSet send path: %v allocs/op, want 0", allocs)
	}

	// The batched combine: per-system pooled blobs into one pooled
	// payload, slot slice reused across frames.
	slots := make([][]byte, 0, 2)
	combine := func() []byte {
		slots = slots[:0]
		slots = append(slots, encodeRenderSet(st), encodeRenderSet(st))
		return framedGroup(2).pack(slots)
	}
	bufpool.Put(combine())
	allocs = testing.AllocsPerRun(200, func() {
		bufpool.Put(combine())
	})
	if allocs != 0 {
		t.Errorf("framed render pack send path: %v allocs/op, want 0", allocs)
	}
}
