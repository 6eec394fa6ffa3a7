// Package render is the image generator's renderer: a software point
// splatter that turns particle batches into frames. The paper's image
// generator "collects the particles sent by the calculators and renders
// each one of the frames of the animation" (§3.1.1); this package is
// that renderer, producing PPM images and deterministic frame checksums
// the test-suite uses to compare sequential and parallel runs.
package render

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"pscluster/internal/bufpool"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// Camera projects world-space points to continuous pixel coordinates.
type Camera interface {
	// Project returns the pixel position, the world-to-pixel size scale
	// at the point, and whether the point is in front of the camera.
	Project(p geom.Vec3) (x, y, scale float64, ok bool)
}

// OrthoCamera views the box region straight down the Z axis: world X
// maps to image X, world Y to image Y (flipped so +Y is up).
type OrthoCamera struct {
	Region geom.AABB
	W, H   int
}

// Project implements Camera.
func (c OrthoCamera) Project(p geom.Vec3) (float64, float64, float64, bool) {
	size := c.Region.Size()
	if size.X <= 0 || size.Y <= 0 {
		return 0, 0, 0, false
	}
	x := (p.X - c.Region.Min.X) / size.X * float64(c.W)
	y := (1 - (p.Y-c.Region.Min.Y)/size.Y) * float64(c.H)
	return x, y, float64(c.W) / size.X, true
}

// PerspectiveCamera is a simple pinhole camera looking from Eye toward
// Look with the +Y-ish Up direction and a vertical field of view in
// radians.
type PerspectiveCamera struct {
	Eye, Look, Up geom.Vec3
	FOV           float64
	W, H          int
}

// Project implements Camera.
func (c PerspectiveCamera) Project(p geom.Vec3) (float64, float64, float64, bool) {
	fwd := c.Look.Sub(c.Eye).Norm()
	right := fwd.Cross(c.Up).Norm()
	up := right.Cross(fwd)
	rel := p.Sub(c.Eye)
	z := rel.Dot(fwd)
	if z <= 1e-6 {
		return 0, 0, 0, false
	}
	f := float64(c.H) / (2 * math.Tan(c.FOV/2))
	x := rel.Dot(right) / z * f
	y := rel.Dot(up) / z * f
	return float64(c.W)/2 + x, float64(c.H)/2 - y, f / z, true
}

// Framebuffer accumulates additive splats in linear RGB. It remembers,
// per row, the column interval splats have written since the last
// Clear, so that Clear, Checksum and the tone-map cost what the frame
// touched rather than what the resolution is.
type Framebuffer struct {
	W, H int
	pix  []geom.Vec3
	// dirty[y] is row y's span. A row is written only by the plane
	// worker that owns it, so the spans need no more synchronisation
	// than the pixels do.
	dirty []span
}

// span is the column interval [lo, hi) of one row that splats have
// written since the last Clear; 0 <= lo <= hi <= W, and lo == hi (the
// zero value) means the row is untouched: every pixel in it is zero.
type span struct{ lo, hi int32 }

// NewFramebuffer returns a cleared framebuffer.
func NewFramebuffer(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid framebuffer %dx%d", w, h))
	}
	return &Framebuffer{W: w, H: h, pix: make([]geom.Vec3, w*h), dirty: make([]span, h)}
}

// Clear zeroes every pixel a splat may have written and forgets the
// spans; its cost follows the frame being erased, not the resolution.
func (f *Framebuffer) Clear() {
	for y, d := range f.dirty {
		if d.lo < d.hi {
			row := y * f.W
			clear(f.pix[row+int(d.lo) : row+int(d.hi)])
			f.dirty[y] = span{}
		}
	}
}

// At returns the accumulated RGB at (x, y).
func (f *Framebuffer) At(x, y int) geom.Vec3 { return f.pix[y*f.W+x] }

// Splat renders one particle as a Gaussian-ish additive disc.
func (f *Framebuffer) Splat(cam Camera, p *particle.Particle) {
	f.splatPoint(cam, p.Pos, p.Color, p.Alpha, p.Size)
}

// splatPoint is the splat body shared by the record and columnar entry
// points.
func (f *Framebuffer) splatPoint(cam Camera, pos, color geom.Vec3, alpha, size float64) {
	f.splatPointOwned(cam, pos, color, alpha, size, 0, 1)
}

// maxSplatRadius clamps pathological splats; no splat reaches farther
// than splatReach pixels from the pixel its centre truncates to.
const (
	maxSplatRadius = 64
	splatReach     = maxSplatRadius + 1
)

// splatPointOwned splats one particle into only the pixel rows owned by
// worker `owner` of `stride` total (rows y with y % stride == owner).
// The per-pixel weights are the exact expressions of the serial
// splatter — the ownership filter only skips whole rows — so summing
// the stride-1 result over all owners reproduces the serial image bit
// for bit.
//
// A pixel at offset (dx, dy) from the truncated centre gets weight
// w = (1 − (dx²+dy²)·inv)·alpha and is written only if w > 0. A splat
// whose alpha is not > 0 (zero, negative or NaN) draws nothing: for a
// negative alpha w > 0 would hold only outside the disc. For alpha > 0,
// w is non-increasing in |dx| along a row — dx²+dy² is an exact integer
// and every rounding step after it is monotone — so the pixels a row
// writes are exactly |dx| ≤ k for the largest k ≤ ir with w(k) > 0.
// Each row finds that k with the same expression, then accumulates over
// [cx−k, cx+k] clipped to the image with no test per pixel.
func (f *Framebuffer) splatPointOwned(cam Camera, pos, color geom.Vec3, alpha, size float64, owner, stride int) {
	if !(alpha > 0) {
		return
	}
	x, y, scale, ok := cam.Project(pos)
	if !ok {
		return
	}
	r := size * scale
	// Reject before any integer conversion (int of a NaN, an infinity or
	// an out-of-range float is implementation-defined): a non-finite
	// radius, or a centre that is non-finite or farther outside the image
	// than any splat reaches, cannot change an in-image pixel. The
	// comparisons are written so that a NaN coordinate fails them.
	if math.IsNaN(r) || math.IsInf(r, 0) ||
		!(x >= -splatReach && x <= float64(f.W+splatReach) &&
			y >= -splatReach && y <= float64(f.H+splatReach)) {
		return
	}
	if r < 0.5 {
		r = 0.5
	}
	if r > maxSplatRadius {
		r = maxSplatRadius
	}
	cx, cy := int(x), int(y)
	ir := int(r) + 1
	inv := 1 / (r * r)
	// Clip the disc's bounding box to the image once, then advance to the
	// first row the owner holds; stepping by stride keeps y0 % stride ==
	// owner without a per-row modulus (and sidesteps negative-y
	// remainders entirely).
	x0, x1 := max(cx-ir, 0), min(cx+ir, f.W-1)
	if x0 > x1 {
		return
	}
	y0, y1 := max(cy-ir, 0), min(cy+ir, f.H-1)
	if stride > 1 {
		if off := (owner - y0%stride + stride) % stride; off != 0 {
			y0 += off
		}
	}
	for py := y0; py <= y1; py += stride {
		dy := py - cy
		k := ir
		for k >= 0 && !((1-float64(k*k+dy*dy)*inv)*alpha > 0) {
			k--
		}
		// k < 0 (no pixel of the row is inside the disc) leaves lo > hi.
		lo, hi := max(cx-k, x0), min(cx+k, x1)
		if lo > hi {
			continue
		}
		row := f.pix[py*f.W+lo : py*f.W+hi+1]
		dx := lo - cx
		for i := range row {
			d2 := float64(dx*dx + dy*dy)
			w := (1 - d2*inv) * alpha
			p := &row[i]
			p.X += color.X * w
			p.Y += color.Y * w
			p.Z += color.Z * w
			dx++
		}
		// Widen the row's span by the columns written, once per row.
		if d := &f.dirty[py]; d.lo == d.hi {
			*d = span{int32(lo), int32(hi + 1)}
		} else {
			d.lo, d.hi = min(d.lo, int32(lo)), max(d.hi, int32(hi+1))
		}
	}
}

// SplatColumns renders a columnar batch, reading only the rendering
// columns — the image generator's ingest path for decoded render
// records.
func (f *Framebuffer) SplatColumns(cam Camera, b *particle.Batch) {
	for i := range b.Pos {
		f.splatPoint(cam, b.Pos[i], b.Color[i], b.Alpha[i], b.Size[i])
	}
}

// SplatColumnsOwned renders a columnar batch into only the rows owned
// by worker `owner` of `stride` — the render plane's per-worker ingest.
func (f *Framebuffer) SplatColumnsOwned(cam Camera, b *particle.Batch, owner, stride int) {
	for i := range b.Pos {
		f.splatPointOwned(cam, b.Pos[i], b.Color[i], b.Alpha[i], b.Size[i], owner, stride)
	}
}

// FNV-1a, 64 bit. Hashing a zero byte is h = (h ^ 0) * fnvPrime, so a
// run of k zero pixels (six zero bytes each) multiplies the state by
// fnvPrime^(6k) mod 2^64 — which is how Checksum steps over everything
// outside the dirty spans without reading it.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// zeroPow[i] is fnvPrime^(6·2^i) mod 2^64: the multiplier for a run of
// 2^i zero pixels. 40 entries cover any framebuffer that fits in memory.
var zeroPow = func() (t [40]uint64) {
	t[0] = 1
	for range 6 {
		t[0] *= fnvPrime
	}
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * t[i-1]
	}
	return t
}()

// zeroRun returns the FNV-1a multiplier for a run of k zero pixels,
// by binary exponentiation over zeroPow.
func zeroRun(k int) uint64 {
	m := uint64(1)
	for i := 0; k != 0; i, k = i+1, k>>1 {
		if k&1 != 0 {
			m *= zeroPow[i]
		}
	}
	return m
}

// quantize maps an accumulated channel to the value Checksum hashes.
func quantize(v float64) uint16 {
	if v < 0 {
		v = 0
	}
	if v > 8 {
		v = 8
	}
	return uint16(v * 512)
}

// Checksum returns a deterministic hash of the frame contents — FNV-1a
// over every pixel's channels, clamped to [0, 8] and quantized to 13
// bits each (big-endian uint16) so that the different floating-point
// accumulation orders of sequential and parallel runs agree. Pixels
// outside the dirty spans are known zero and are folded in as runs.
func (f *Framebuffer) Checksum() uint64 {
	h := fnvOffset
	zeros := 0 // untouched pixels not yet folded into h
	for y, d := range f.dirty {
		if d.lo == d.hi {
			zeros += f.W
			continue
		}
		h *= zeroRun(zeros + int(d.lo))
		row := y * f.W
		for _, p := range f.pix[row+int(d.lo) : row+int(d.hi)] {
			r, g, b := quantize(p.X), quantize(p.Y), quantize(p.Z)
			h = (h ^ uint64(r>>8)) * fnvPrime
			h = (h ^ uint64(r&0xff)) * fnvPrime
			h = (h ^ uint64(g>>8)) * fnvPrime
			h = (h ^ uint64(g&0xff)) * fnvPrime
			h = (h ^ uint64(b>>8)) * fnvPrime
			h = (h ^ uint64(b&0xff)) * fnvPrime
		}
		zeros = f.W - int(d.hi)
	}
	return h * zeroRun(zeros)
}

// WritePPM writes the frame as a binary PPM (P6), tone-mapping the
// accumulated energy with a simple x/(1+x) curve. The tone-map fans out
// across host goroutines; each worker maps a disjoint block of rows
// into a pooled scratch buffer, so the bytes written are independent of
// the worker count.
func (f *Framebuffer) WritePPM(w io.Writer) error {
	return f.writePPM(w, runtime.GOMAXPROCS(0))
}

// writePPM is WritePPM at an explicit tone-map width (tests drive the
// width directly to prove byte identity).
func (f *Framebuffer) writePPM(w io.Writer, workers int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", f.W, f.H); err != nil {
		return err
	}
	buf := bufpool.Get(3 * f.W * f.H)
	if workers > f.H {
		workers = f.H
	}
	if workers <= 1 {
		f.toneRows(buf, 0, f.H)
	} else {
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			y0, y1 := k*f.H/workers, (k+1)*f.H/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.toneRows(buf, y0, y1)
			}()
		}
		wg.Wait()
	}
	_, err := bw.Write(buf)
	bufpool.Put(buf)
	if err != nil {
		return err
	}
	return bw.Flush()
}

// tone is the x/(1+x) tone curve; tone(0) == 0.
func tone(v float64) byte {
	if v < 0 {
		v = 0
	}
	return byte(255 * v / (1 + v))
}

// toneRows tone-maps rows [y0, y1) into their slots of buf. Only the
// dirty span of a row is mapped; the rest is tone(0) == 0, written
// explicitly because the pooled buf arrives with old contents.
func (f *Framebuffer) toneRows(buf []byte, y0, y1 int) {
	for y := y0; y < y1; y++ {
		row := y * f.W
		lo, hi := row+int(f.dirty[y].lo), row+int(f.dirty[y].hi)
		clear(buf[3*row : 3*lo])
		for i := lo; i < hi; i++ {
			p := f.pix[i]
			buf[3*i] = tone(p.X)
			buf[3*i+1] = tone(p.Y)
			buf[3*i+2] = tone(p.Z)
		}
		clear(buf[3*hi : 3*(row+f.W)])
	}
}
