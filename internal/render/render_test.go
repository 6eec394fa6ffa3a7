package render

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

func testCam() OrthoCamera {
	return OrthoCamera{Region: geom.Box(geom.V(-10, -10, -10), geom.V(10, 10, 10)), W: 64, H: 64}
}

func TestOrthoProjectCenterAndCorners(t *testing.T) {
	c := testCam()
	x, y, _, ok := c.Project(geom.V(0, 0, 0))
	if !ok || x != 32 || y != 32 {
		t.Errorf("center -> (%v, %v, %v)", x, y, ok)
	}
	x, y, _, _ = c.Project(geom.V(-10, 10, 0))
	if x != 0 || y != 0 {
		t.Errorf("top-left -> (%v, %v)", x, y)
	}
	x, y, _, _ = c.Project(geom.V(10, -10, 0))
	if x != 64 || y != 64 {
		t.Errorf("bottom-right -> (%v, %v)", x, y)
	}
}

func TestPerspectiveProject(t *testing.T) {
	c := PerspectiveCamera{
		Eye: geom.V(0, 0, 10), Look: geom.V(0, 0, 0), Up: geom.V(0, 1, 0),
		FOV: 1.0, W: 100, H: 100,
	}
	x, y, _, ok := c.Project(geom.V(0, 0, 0))
	if !ok || x != 50 || y != 50 {
		t.Errorf("center -> (%v, %v, %v)", x, y, ok)
	}
	// A point above the look axis projects above the image center.
	_, y2, _, ok := c.Project(geom.V(0, 2, 0))
	if !ok || y2 >= 50 {
		t.Errorf("raised point projects at y=%v, want < 50", y2)
	}
	// Behind the camera: rejected.
	if _, _, _, ok := c.Project(geom.V(0, 0, 20)); ok {
		t.Error("point behind camera accepted")
	}
	// Nearer points get larger scale (bigger splats).
	_, _, sNear, _ := c.Project(geom.V(0, 0, 5))
	_, _, sFar, _ := c.Project(geom.V(0, 0, -5))
	if sNear <= sFar {
		t.Errorf("scale near %v <= far %v", sNear, sFar)
	}
}

func TestSplatDepositsEnergy(t *testing.T) {
	f := NewFramebuffer(64, 64)
	p := particle.Particle{Pos: geom.V(0, 0, 0), Color: geom.V(1, 0.5, 0.25), Alpha: 1, Size: 1}
	f.Splat(testCam(), &p)
	c := f.At(32, 32)
	if c.X <= 0 || c.Y <= 0 || c.Z <= 0 {
		t.Errorf("center pixel = %v, want positive energy", c)
	}
	if c.Y/c.X < 0.4 || c.Y/c.X > 0.6 {
		t.Errorf("color ratio off: %v", c)
	}
	// Distant pixel untouched.
	if got := f.At(0, 0); got != (geom.Vec3{}) {
		t.Errorf("far pixel = %v", got)
	}
}

// Splats that cannot reach the image — off-screen, or with a NaN, an
// infinite or an astronomically large projected centre or radius — are
// rejected before any float-to-int conversion: no panic, no pixel, no
// dirty span. Edge-straddling splats still land.
func TestSplatOffscreenIsSafe(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type splat struct {
		pos  geom.Vec3
		size float64
	}
	var rejected []splat
	for _, v := range []float64{nan, inf, -inf, 1e300, -1e300, 1000, -1000} {
		rejected = append(rejected,
			splat{geom.V(v, 0, 0), 5}, splat{geom.V(0, v, 0), 5}, splat{geom.V(v, v, v), 5},
			// A huge finite radius clamps to 64 px, which still cannot
			// reach back from this far out.
			splat{geom.V(v, 0, 0), 1e300})
	}
	for _, size := range []float64{nan, inf, -inf} {
		rejected = append(rejected, splat{geom.V(0, 0, 0), size})
	}
	for _, cam := range []Camera{
		squareCam(16, 16),
		PerspectiveCamera{Eye: geom.V(0, 0, 25), Look: geom.V(0, 0, 0),
			Up: geom.V(0, 1, 0), FOV: 1, W: 16, H: 16},
	} {
		f := NewFramebuffer(16, 16)
		empty := f.Checksum()
		for _, s := range rejected {
			p := particle.Particle{Pos: s.pos, Color: geom.V(1, 1, 1), Alpha: 1, Size: s.size}
			f.Splat(cam, &p)
			if f.Checksum() != empty || !spansEmpty(f) || !allZero(f) {
				t.Fatalf("%T: splat at %v size %v left a mark", cam, s.pos, s.size)
			}
		}
		edge := particle.Particle{Pos: geom.V(9.99, 9.99, 0), Color: geom.V(1, 1, 1), Alpha: 1, Size: 5}
		f.Splat(cam, &edge) // must not panic at image edges
		if f.Checksum() == empty {
			t.Errorf("%T: edge-straddling splat left no mark", cam)
		}
	}
}

func TestZeroAlphaInvisible(t *testing.T) {
	f := NewFramebuffer(32, 32)
	p := particle.Particle{Pos: geom.V(0, 0, 0), Color: geom.V(1, 1, 1), Alpha: 0, Size: 2}
	f.Splat(testCam(), &p)
	if f.Checksum() != NewFramebuffer(32, 32).Checksum() {
		t.Error("zero-alpha particle left a mark")
	}
}

// A splat whose alpha is not > 0 draws nothing. For a negative alpha
// the weight (1 − d²/r²)·alpha is positive only outside the disc, so
// the box scan used to leave the centre dark and light the box corners.
func TestNegativeAlphaDrawsNothing(t *testing.T) {
	cam := squareCam(32, 32)
	for _, alpha := range []float64{-0.5, -1e-300, math.Inf(-1)} {
		f := NewFramebuffer(32, 32)
		// 2.5 px at 1.6 px per unit.
		p := particle.Particle{Pos: geom.V(0.3, -0.2, 0), Color: geom.V(1, 1, 1), Alpha: alpha, Size: 2.5 / 1.6}
		f.Splat(cam, &p)
		if !allZero(f) || !spansEmpty(f) {
			t.Errorf("alpha %v: the splat left pixels or spans", alpha)
		}
	}
}

// splatAll renders every particle of ps, in order.
func splatAll(f *Framebuffer, cam Camera, ps []particle.Particle) {
	for i := range ps {
		f.Splat(cam, &ps[i])
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	ps := []particle.Particle{
		{Pos: geom.V(1, 2, 0), Color: geom.V(1, 0, 0), Alpha: 0.7, Size: 1},
		{Pos: geom.V(-3, 4, 0), Color: geom.V(0, 1, 0), Alpha: 0.5, Size: 2},
		{Pos: geom.V(5, -6, 0), Color: geom.V(0, 0, 1), Alpha: 0.9, Size: 1.5},
	}
	f1 := NewFramebuffer(64, 64)
	splatAll(f1, testCam(), ps)
	f2 := NewFramebuffer(64, 64)
	for i := len(ps) - 1; i >= 0; i-- {
		f2.Splat(testCam(), &ps[i])
	}
	if f1.Checksum() != f2.Checksum() {
		t.Error("checksum depends on splat order")
	}
}

func TestChecksumDetectsDifference(t *testing.T) {
	f1 := NewFramebuffer(32, 32)
	f2 := NewFramebuffer(32, 32)
	p := particle.Particle{Pos: geom.V(0, 0, 0), Color: geom.V(1, 1, 1), Alpha: 1, Size: 1}
	f1.Splat(testCam(), &p)
	if f1.Checksum() == f2.Checksum() {
		t.Error("checksum blind to content")
	}
}

func TestClear(t *testing.T) {
	f := NewFramebuffer(32, 32)
	empty := f.Checksum()
	p := particle.Particle{Pos: geom.V(0, 0, 0), Color: geom.V(1, 1, 1), Alpha: 1, Size: 1}
	f.Splat(testCam(), &p)
	f.Clear()
	if f.Checksum() != empty {
		t.Error("Clear did not reset the frame")
	}
}

func TestWritePPM(t *testing.T) {
	f := NewFramebuffer(8, 4)
	p := particle.Particle{Pos: geom.V(0, 0, 0), Color: geom.V(4, 4, 4), Alpha: 1, Size: 3}
	f.Splat(OrthoCamera{Region: geom.Box(geom.V(-1, -1, -1), geom.V(1, 1, 1)), W: 8, H: 4}, &p)
	var buf bytes.Buffer
	if err := f.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P6\n8 4\n255\n") {
		t.Errorf("PPM header = %q", s[:min(20, len(s))])
	}
	if buf.Len() != len("P6\n8 4\n255\n")+8*4*3 {
		t.Errorf("PPM size = %d", buf.Len())
	}
}

func TestNewFramebufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid size accepted")
		}
	}()
	NewFramebuffer(0, 10)
}

// spansEmpty reports whether no row of f carries a dirty span.
func spansEmpty(f *Framebuffer) bool {
	for _, d := range f.dirty {
		if d != (span{}) {
			return false
		}
	}
	return true
}

// allZero scans every pixel of f, spans or not.
func allZero(f *Framebuffer) bool {
	for _, p := range f.pix {
		if p != (geom.Vec3{}) {
			return false
		}
	}
	return true
}

// referenceChecksum is the plain definition of Checksum, kept as the
// test oracle: every pixel of pix, quantized, through hash/fnv.
func referenceChecksum(f *Framebuffer) uint64 {
	h := fnv.New64a()
	var buf [6]byte
	for _, p := range f.pix {
		q := func(v float64) uint16 {
			if v < 0 {
				v = 0
			}
			if v > 8 {
				v = 8
			}
			return uint16(v * 512)
		}
		r, g, b := q(p.X), q(p.Y), q(p.Z)
		buf[0], buf[1] = byte(r>>8), byte(r)
		buf[2], buf[3] = byte(g>>8), byte(g)
		buf[4], buf[5] = byte(b>>8), byte(b)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// referencePPM is the plain definition of WritePPM, kept as the test
// oracle: header, then every pixel of pix through the tone curve.
func referencePPM(f *Framebuffer) []byte {
	out := []byte(fmt.Sprintf("P6\n%d %d\n255\n", f.W, f.H))
	for _, p := range f.pix {
		out = append(out, tone(p.X), tone(p.Y), tone(p.Z))
	}
	return out
}

// squareCam views the [-10, 10] square at w x h pixels.
func squareCam(w, h int) OrthoCamera {
	return OrthoCamera{Region: geom.Box(geom.V(-10, -10, -10), geom.V(10, 10, 10)), W: w, H: h}
}

// onePixel is a splat that lights exactly pixel (px, py) of cam: its
// radius clamps up to 0.5, so only the centre pixel gets weight.
func onePixel(b *particle.Batch, cam OrthoCamera, px, py int) {
	b.Pos = append(b.Pos, geom.V(
		-10+(float64(px)+0.5)/float64(cam.W)*20,
		10-(float64(py)+0.5)/float64(cam.H)*20, 0))
	b.Color = append(b.Color, geom.V(1, 0.5, 0.25))
	b.Alpha = append(b.Alpha, 1)
	b.Size = append(b.Size, 1e-6)
}

// randomColumns draws n splats from r: centres a little beyond the
// view on every side, radii from sub-pixel to many rows, colours from
// negative to saturating, alphas of both signs.
func randomColumns(r *geom.RNG, n int) *particle.Batch {
	b := &particle.Batch{}
	for i := 0; i < n; i++ {
		b.Pos = append(b.Pos, geom.V(r.Range(-12, 12), r.Range(-12, 12), r.Range(-5, 5)))
		b.Color = append(b.Color, geom.V(r.Range(-1, 30), r.Range(-1, 30), r.Range(-1, 30)))
		b.Alpha = append(b.Alpha, r.Range(-0.5, 1))
		b.Size = append(b.Size, r.Range(0.001, 6))
	}
	return b
}

// uniformColumns is n splats of one colour, alpha and size scattered
// over the view.
func uniformColumns(r *geom.RNG, n int, color geom.Vec3, alpha, size float64) *particle.Batch {
	b := &particle.Batch{}
	for i := 0; i < n; i++ {
		b.Pos = append(b.Pos, geom.V(r.Range(-10, 10), r.Range(-10, 10), 0))
		b.Color = append(b.Color, color)
		b.Alpha = append(b.Alpha, alpha)
		b.Size = append(b.Size, size)
	}
	return b
}

// The span-skipping Checksum is the plain full-scan hash on every kind
// of frame, at every plane width (owners splat concurrently, as the
// plane's workers do, so -race also sees the span arrays).
func TestChecksumMatchesReference(t *testing.T) {
	type frame struct {
		name string
		w, h int
		b    *particle.Batch
	}
	r := geom.NewRNG(21)
	corners := &particle.Batch{}
	for _, c := range [][2]int{{0, 0}, {63, 0}, {0, 40}, {63, 40}} {
		onePixel(corners, squareCam(64, 41), c[0], c[1])
	}
	cluster := uniformColumns(r, 6, geom.V(0.4, 0.6, 0.9), 0.6, 0.4)
	for i := range cluster.Pos {
		cluster.Pos[i] = cluster.Pos[i].Scale(0.1).Add(geom.V(4, -3, 0))
	}
	frames := []frame{
		{"empty", 64, 41, &particle.Batch{}},
		{"corners", 64, 41, corners},
		{"sparse", 64, 41, cluster},
		{"dense", 64, 41, uniformColumns(r, 300, geom.V(0.3, 0.2, 0.1), 0.5, 2)},
		{"clipped", 64, 41, edgeBatch()},
		{"saturated", 64, 41, uniformColumns(r, 40, geom.V(40, 40, 40), 1, 3)},
		{"negative-color", 64, 41, uniformColumns(r, 40, geom.V(-2, 0.5, -0.1), 1, 3)},
		{"negative-alpha", 64, 41, uniformColumns(r, 40, geom.V(1, 1, 1), -0.7, 3)},
		{"1x1", 1, 1, randomColumns(r, 5)},
		{"1x17", 1, 17, randomColumns(r, 9)},
		{"17x1", 17, 1, randomColumns(r, 9)},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rs := geom.NewRNG(seed)
		w, h := 1+int(rs.Range(0, 70)), 1+int(rs.Range(0, 70))
		frames = append(frames, frame{fmt.Sprintf("random-%d", seed), w, h,
			randomColumns(rs, int(rs.Range(0, 60)))})
	}
	for _, fr := range frames {
		cam := squareCam(fr.w, fr.h)
		var serial uint64
		for _, width := range []int{1, 2, 3, 8} {
			f := NewFramebuffer(fr.w, fr.h)
			var wg sync.WaitGroup
			for owner := 0; owner < width; owner++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					f.SplatColumnsOwned(cam, fr.b, owner, width)
				}()
			}
			wg.Wait()
			got, want := f.Checksum(), referenceChecksum(f)
			if got != want {
				t.Errorf("%s width %d: Checksum %x, full scan %x", fr.name, width, got, want)
			}
			if width == 1 {
				serial = want
			} else if want != serial {
				t.Errorf("%s width %d: frame differs from serial", fr.name, width)
			}
			switch fr.name {
			case "empty":
				if !spansEmpty(f) {
					t.Errorf("empty frame has dirty spans")
				}
			case "dense":
				for y, d := range f.dirty {
					if d.lo >= d.hi {
						t.Fatalf("dense frame left row %d clean", y)
					}
				}
			}
		}
	}
}

// zeroRun(k) is 6k multiplications by the FNV prime, folded.
func TestZeroRun(t *testing.T) {
	const w, h = 1280, 960
	for _, k := range []int{0, 1, 2, w, w * h} {
		want := uint64(1)
		for i := 0; i < 6*k; i++ {
			want *= fnvPrime
		}
		if got := zeroRun(k); got != want {
			t.Errorf("zeroRun(%d) = %x, want %x", k, got, want)
		}
	}
}

// Clear leaves nothing behind: not in the pixels a full scan sees, not
// in the spans, and not in what the next frame hashes or writes.
func TestClearLeavesNoStaleState(t *testing.T) {
	cam := squareCam(64, 41)
	r := geom.NewRNG(5)
	a, b := randomColumns(r, 50), randomColumns(r, 20)
	ppm := func(f *Framebuffer) []byte {
		var buf bytes.Buffer
		if err := f.WritePPM(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	f := NewFramebuffer(64, 41)
	f.SplatColumns(cam, a)
	f.Clear()
	if !allZero(f) || !spansEmpty(f) {
		t.Fatal("Clear left pixels or spans behind")
	}
	if f.Checksum() != NewFramebuffer(64, 41).Checksum() {
		t.Error("cleared frame hashes differently from a fresh one")
	}

	f.SplatColumns(cam, b)
	fresh := NewFramebuffer(64, 41)
	fresh.SplatColumns(cam, b)
	if f.Checksum() != fresh.Checksum() || f.Checksum() != referenceChecksum(fresh) {
		t.Error("splat A, Clear, splat B hashes differently from fresh splat B")
	}
	if !bytes.Equal(ppm(f), ppm(fresh)) {
		t.Error("splat A, Clear, splat B writes a different PPM from fresh splat B")
	}
}

// The splats, Checksum, the tone-map and Clear are plain loops over the
// framebuffer's own memory.
func TestChecksumClearZeroAlloc(t *testing.T) {
	f := NewFramebuffer(64, 41)
	b := edgeBatch()
	var cam Camera = squareCam(64, 41) // boxed once, outside the measured frame
	buf := make([]byte, 3*f.W*f.H)
	if n := testing.AllocsPerRun(20, func() {
		f.SplatColumns(cam, b)
		f.SplatColumnsOwned(cam, b, 1, 2)
		benchSink += f.Checksum()
		f.toneRows(buf, 0, f.H)
		f.Clear()
	}); n != 0 {
		t.Errorf("splat + Checksum + tone-map + Clear allocate %v objects per frame, want 0", n)
	}
}

// The tone-map skips what no splat touched, yet writes the bytes of the
// full-scan tone-map — into a scratch buffer that arrives dirty.
func TestWritePPMSparseMatchesFullScan(t *testing.T) {
	cam := squareCam(48, 41)
	corners := &particle.Batch{}
	for _, c := range [][2]int{{0, 0}, {47, 0}, {0, 40}, {47, 40}, {20, 17}} {
		onePixel(corners, cam, c[0], c[1])
	}
	for name, b := range map[string]*particle.Batch{
		"empty": {}, "corners": corners, "clipped": edgeBatch(),
		"random": randomColumns(geom.NewRNG(9), 12),
	} {
		f := NewFramebuffer(48, 41)
		f.SplatColumns(cam, b)
		want := referencePPM(f)
		for _, workers := range []int{1, 3} {
			var got bytes.Buffer
			if err := f.writePPM(&got, workers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s workers=%d: PPM differs from the full-scan tone-map", name, workers)
			}
		}
		dirty := bytes.Repeat([]byte{0xAA}, 3*48*41)
		f.toneRows(dirty, 0, 41)
		if !bytes.Equal(dirty, want[len(want)-len(dirty):]) {
			t.Errorf("%s: toneRows left scratch bytes outside the spans", name)
		}
	}
}

// splatBoxScan is the splatter before each row found its disc, kept as
// the oracle for splatPointOwned: it scans the disc's whole clipped
// bounding box, writes the pixels whose weight is > 0, and widens every
// row it visits by the box. It follows the same alpha rule. written[y]
// is widened by the columns it actually wrote in row y.
func (f *Framebuffer) splatBoxScan(cam Camera, pos, color geom.Vec3, alpha, size float64, owner, stride int, written []span) {
	if !(alpha > 0) {
		return
	}
	x, y, scale, ok := cam.Project(pos)
	if !ok {
		return
	}
	r := size * scale
	if math.IsNaN(r) || math.IsInf(r, 0) ||
		!(x >= -splatReach && x <= float64(f.W+splatReach) &&
			y >= -splatReach && y <= float64(f.H+splatReach)) {
		return
	}
	r = min(max(r, 0.5), maxSplatRadius)
	cx, cy := int(x), int(y)
	ir := int(r) + 1
	inv := 1 / (r * r)
	x0, x1 := max(cx-ir, 0), min(cx+ir, f.W-1)
	if x0 > x1 {
		return
	}
	y0, y1 := max(cy-ir, 0), min(cy+ir, f.H-1)
	if off := (owner - y0%stride + stride) % stride; off != 0 {
		y0 += off
	}
	widen := func(d *span, lo, hi int32) {
		if d.lo == d.hi {
			*d = span{lo, hi}
		} else {
			d.lo, d.hi = min(d.lo, lo), max(d.hi, hi)
		}
	}
	for py := y0; py <= y1; py += stride {
		dy := py - cy
		for px := x0; px <= x1; px++ {
			dx := px - cx
			d2 := float64(dx*dx + dy*dy)
			w := (1 - d2*inv) * alpha
			if w > 0 {
				p := &f.pix[py*f.W+px]
				p.X += color.X * w
				p.Y += color.Y * w
				p.Z += color.Z * w
				widen(&written[py], int32(px), int32(px+1))
			}
		}
		widen(&f.dirty[py], int32(x0), int32(x1+1))
	}
}

// testSplat is one splat of the exact-disc tests.
type testSplat struct {
	pos         geom.Vec3
	alpha, size float64
}

// splatColor has a channel of each kind: plain, negative and saturating.
var splatColor = geom.V(0.9, -0.3, 7)

// checkBoxScan splats ss at stride through every owner, once with
// splatPointOwned and once with the box-scan oracle, into fresh w×h
// frames. The pixels must match bit for bit, and every row's span must
// contain the columns the oracle wrote and lie inside its box.
func checkBoxScan(t *testing.T, cam Camera, w, h, stride int, ss []testSplat) {
	t.Helper()
	got, want := NewFramebuffer(w, h), NewFramebuffer(w, h)
	written := make([]span, h)
	for owner := range stride {
		for _, s := range ss {
			got.splatPointOwned(cam, s.pos, splatColor, s.alpha, s.size, owner, stride)
			want.splatBoxScan(cam, s.pos, splatColor, s.alpha, s.size, owner, stride, written)
		}
	}
	for i, g := range got.pix {
		o := want.pix[i]
		if math.Float64bits(g.X) != math.Float64bits(o.X) ||
			math.Float64bits(g.Y) != math.Float64bits(o.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(o.Z) {
			t.Fatalf("%T %dx%d stride %d %v: pixel (%d,%d) = %v, box scan %v",
				cam, w, h, stride, ss, i%w, i/w, g, o)
		}
	}
	inside := func(a, b span) bool { return a.lo == a.hi || b.lo <= a.lo && a.hi <= b.hi }
	for y, d := range got.dirty {
		if !inside(written[y], d) || !inside(d, want.dirty[y]) {
			t.Fatalf("%T %dx%d stride %d %v: row %d span %v, written %v, box %v",
				cam, w, h, stride, ss, y, d, written[y], want.dirty[y])
		}
	}
}

// splatCams are the two cameras over a w×h view of the [-10, 10] cube.
func splatCams(w, h int) []Camera {
	return []Camera{squareCam(w, h), PerspectiveCamera{Eye: geom.V(0, 0, 25),
		Look: geom.V(0, 0, 0), Up: geom.V(0, 1, 0), FOV: 1, W: w, H: h}}
}

// The exact-disc splat is the box scan, bit for bit: radii from the
// 0.5 px clamp to the 64 px clamp, alphas positive, subnormal, zero,
// NaN and negative, centres straddling every edge and corner, both
// cameras, strides 1, 2, 3 and 8.
func TestSplatMatchesBoxScan(t *testing.T) {
	const w, h = 37, 23
	pxs := []float64{-66, -3.5, -0.5, 0.2, 1, w / 2.0, w - 1.2, w - 0.01, w + 0.6, w + 4}
	pys := []float64{-66, -2.7, -0.3, 0.4, h / 2.0, h - 0.9, h + 0.2, h + 5.5}
	radii := []float64{1e-3, 0.5, 0.73, 1, 2.5, 3, 6.2, 17, 63.99, 64, 1e6}
	alphas := []float64{0.8, 1, 3, 5e-324, 1e-300, 0, math.NaN(), -0.5}
	for _, cam := range splatCams(w, h) {
		for _, stride := range []int{1, 2, 3, 8} {
			for _, rpx := range radii {
				for _, alpha := range alphas {
					for _, py := range pys {
						for _, px := range pxs {
							// Pixel to world for the ortho camera at 1.85 px per
							// unit; the perspective camera sees the same points.
							pos := geom.V(-10+px/w*20, 10-py/h*20, 0)
							checkBoxScan(t, cam, w, h, stride, []testSplat{{pos, alpha, rpx / (w / 20.0)}})
						}
					}
				}
			}
		}
	}
}

// FuzzSplatMatchesBoxScan checks the exact-disc splat against the box
// scan on arbitrary frames, splats, cameras and strides. A fixed splat
// lands first, so the fuzzed one also widens spans that are already set.
func FuzzSplatMatchesBoxScan(f *testing.F) {
	f.Add(uint8(37), uint8(23), 0.3, -0.2, 0.0, 1.4, 0.8, false, uint8(0))
	f.Add(uint8(64), uint8(64), -9.9, 9.9, 0.0, 5.0, 1.0, true, uint8(2))
	f.Add(uint8(1), uint8(17), 10.4, 0.0, 1.0, 0.001, 5e-324, false, uint8(7))
	f.Fuzz(func(t *testing.T, w, h uint8, x, y, z, size, alpha float64, persp bool, stride uint8) {
		fw, fh := 1+int(w%64), 1+int(h%64)
		cam := splatCams(fw, fh)[0]
		if persp {
			cam = splatCams(fw, fh)[1]
		}
		checkBoxScan(t, cam, fw, fh, 1+int(stride%8), []testSplat{
			{geom.V(1, -1, 0), 0.7, 2},
			{geom.V(x, y, z), alpha, size},
		})
	})
}
