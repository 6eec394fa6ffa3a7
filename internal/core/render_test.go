package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pscluster/internal/bufpool"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// rasterSnow is miniSnow with rasterization on, at a small frame of
// odd height.
func rasterSnow(lb LBMode, mode SpaceMode) Scenario {
	scn := miniSnow(lb, mode)
	scn.Render.Rasterize = true
	scn.Render.Width, scn.Render.Height = 48, 41
	return scn
}

// Pipelined frames are invisible to frame content: PipelineFrames lets
// the calculators run ahead of the image generator, but the frame
// checksums must match the synchronous run (virtual times legitimately
// differ — the barrier is gone).
func TestPipelinedRenderSameChecksums(t *testing.T) {
	base := rasterSnow(DynamicLB, FiniteSpace)
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

// The framebuffer's Clear erases only the spans the previous frame
// dirtied, and the picture changes every frame — so equal checksums
// between the synchronous and the pipelined run, over enough frames for
// the buffer to be reused several times, mean neither path carries
// stale pixels or spans forward.
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
	piped := base
	piped.PipelineFrames = true
	got, err := RunParallel(piped, testCluster(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.FrameChecksums, got.FrameChecksums) {
		t.Errorf("pipelined checksums diverge from the synchronous run:\n%v\n%v",
			want.FrameChecksums, got.FrameChecksums)
	}
}

// Written PPM bytes are identical with and without pipelined frames.
func TestPipelinedRenderPPMBytesIdentical(t *testing.T) {
	render := func(pipe bool) map[string][]byte {
		dir := t.TempDir()
		scn := rasterSnow(StaticLB, FiniteSpace)
		scn.Frames = 3
		scn.Render.OutputDir = dir
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
	want, got := render(false), render(true)
	if len(want) != 3 || len(got) != len(want) {
		t.Fatalf("%d synchronous and %d pipelined frames written, want 3 each", len(want), len(got))
	}
	for name, data := range want {
		if !bytes.Equal(data, got[name]) {
			t.Errorf("%s bytes differ between synchronous and pipelined frames", name)
		}
	}
}

// The render send path's acceptance bar (ROADMAP item 4 holdover):
// once the pool is warm, encoding a store's render records — and the
// batched schedule's combine — allocates nothing. Neither do the image
// generator's decode and the calculators' slab ghost trade.
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

	// The image generator's decode into its scratch batch.
	blob := encodeRenderSet(st)
	var cols particle.Batch
	decode := func() {
		if err := decodeRenderColumnsInto(&cols, blob); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs = testing.AllocsPerRun(200, decode); allocs != 0 {
		t.Errorf("decodeRenderColumnsInto: %v allocs/op, want 0", allocs)
	}

	// The image generator's checksum when it does not rasterize.
	var sum uint64
	hash := func() { sum += hashRenderRecords(blob) }
	hash()
	if allocs = testing.AllocsPerRun(200, hash); allocs != 0 {
		t.Errorf("hashRenderRecords: %v allocs/op, want 0", allocs)
	}
	bufpool.Put(blob)

	// A slab ghost trade between two calculators. The router's inboxes
	// buffer every send, so one goroutine plays both: calculator 1 sends
	// its band, calculator 0 trades (sends its own, receives 1's), and
	// calculator 1 receives 0's.
	scn := straddlePair()
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	cl := testCluster(2)
	place, err := cl.Place(2)
	if err != nil {
		t.Fatal(err)
	}
	router := transport.NewRouter(place, cl.Net)
	var calcs [2]*calcProc
	for i := range calcs {
		if calcs[i], err = newCalcProc(&scn, place, 2, i, router.Endpoint(rankCalc0+i)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			calcs[i].stores[0].Add(mkParticle(float64(i*50+k)/50 - 1)) // x in [-1, 1)
		}
	}
	c0, c1 := calcs[0], calcs[1]
	band := c1.stores[0].Bin(0)
	trade := func() {
		c1.ep.SendScaled(rankCalc0, transport.TagGhosts, band.EncodeWire(), 1)
		if _, err := c0.exchangeGhostBandSlab(0, 2); err != nil {
			t.Fatal(err)
		}
		c1.ghosts.Clear()
		if err := c1.recvGhostsInto(0, &c1.ghosts); err != nil {
			t.Fatal(err)
		}
	}
	trade()
	if band.Len() == 0 || c0.ghosts.Len() == 0 || c1.ghosts.Len() == 0 {
		t.Fatal("the trade moved no ghosts")
	}
	if allocs = testing.AllocsPerRun(200, trade); allocs != 0 {
		t.Errorf("slab ghost trade: %v allocs/op, want 0", allocs)
	}
}
