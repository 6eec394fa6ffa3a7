package render

import (
	"bytes"
	"fmt"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// edgeBatch builds a columnar batch whose splats exercise the ownership
// rule's corners: discs straddling many row boundaries, discs clipped
// by every image edge, sub-pixel and clamped-huge radii.
func edgeBatch() *particle.Batch {
	b := &particle.Batch{}
	add := func(pos geom.Vec3, size float64) {
		b.Pos = append(b.Pos, pos)
		b.Color = append(b.Color, geom.V(0.9, 0.5, 0.2))
		b.Alpha = append(b.Alpha, 0.8)
		b.Size = append(b.Size, size)
	}
	// Center of the image, radius spanning many rows.
	add(geom.V(0, 0, 0), 4)
	// Straddling each image edge (center projected just inside).
	add(geom.V(-9.8, 0, 0), 3)
	add(geom.V(9.8, 0, 0), 3)
	add(geom.V(0, 9.8, 0), 3)
	add(geom.V(0, -9.8, 0), 3)
	// Corners.
	add(geom.V(-9.9, 9.9, 0), 5)
	add(geom.V(9.9, -9.9, 0), 5)
	// Entirely off-screen but with a disc that reaches back in.
	add(geom.V(-10.5, 0, 0), 8)
	// Sub-pixel splat (radius clamps up to 0.5).
	add(geom.V(3, -2, 0), 0.001)
	// Pathological size (radius clamps down to 64).
	add(geom.V(-2, 5, 0), 1000)
	return b
}

// The ownership invariant behind the plane's bit-neutrality: splatting
// a batch once per owner at stride s touches each pixel exactly once,
// and the resulting floats equal the serial splatter's bit for bit —
// including rows at tile borders and discs clipped by image edges.
func TestOwnedSplatPartitionsExactly(t *testing.T) {
	b := edgeBatch()
	for _, cam := range []Camera{
		testCam(),
		PerspectiveCamera{Eye: geom.V(0, 0, 25), Look: geom.V(0, 0, 0),
			Up: geom.V(0, 1, 0), FOV: 1, W: 64, H: 64},
	} {
		// 64 rows: stride 7 leaves a ragged final tile, stride 64 gives
		// one row per owner, stride 100 leaves owners with no rows.
		for _, stride := range []int{1, 2, 3, 7, 64, 100} {
			serial := NewFramebuffer(64, 64)
			serial.SplatColumns(cam, b)
			owned := NewFramebuffer(64, 64)
			for owner := 0; owner < stride; owner++ {
				owned.SplatColumnsOwned(cam, b, owner, stride)
			}
			for y := 0; y < 64; y++ {
				for x := 0; x < 64; x++ {
					if serial.At(x, y) != owned.At(x, y) {
						t.Fatalf("%T stride %d: pixel (%d,%d) = %v, serial %v",
							cam, stride, x, y, owned.At(x, y), serial.At(x, y))
					}
				}
			}
		}
	}
}

// Each owner writes only rows y ≡ owner (mod stride): the union test
// above could hide a worker trespassing on another's rows if the
// trespass were overwritten, so check row ownership directly.
func TestOwnedSplatStaysInOwnedRows(t *testing.T) {
	b := edgeBatch()
	const stride = 5
	for owner := 0; owner < stride; owner++ {
		fb := NewFramebuffer(64, 64)
		fb.SplatColumnsOwned(testCam(), b, owner, stride)
		for y := 0; y < 64; y++ {
			if y%stride == owner {
				continue
			}
			for x := 0; x < 64; x++ {
				if fb.At(x, y) != (geom.Vec3{}) {
					t.Fatalf("owner %d wrote foreign row %d (col %d)", owner, y, x)
				}
			}
		}
	}
}

// A plane of any width reproduces the serial image: every worker sees
// every batch in ingest order and owns disjoint rows, so Checksum is
// the serial checksum.
func TestPlaneMatchesSerial(t *testing.T) {
	blob := encodeTestBlob(edgeBatch())
	serial := NewFramebuffer(64, 64)
	var wire particle.Batch
	for i := 0; i < 3; i++ {
		if err := decodeTestBlob(&wire, blob); err != nil {
			t.Fatal(err)
		}
		serial.SplatColumns(testCam(), &wire)
	}
	want := serial.Checksum()

	for _, width := range []int{1, 2, 3, 8} {
		p := NewPlane(width)
		fb := NewFramebuffer(64, 64)
		for i := 0; i < 3; i++ {
			if err := p.Ingest(fb, testCam(), blob, decodeTestBlob); err != nil {
				t.Fatal(err)
			}
		}
		p.Barrier()
		if got := fb.Checksum(); got != want {
			t.Errorf("width %d: checksum %x, serial %x", width, got, want)
		}
		p.Close()
		p.Close() // idempotent
	}
}

// Decode errors surface from Ingest before any worker sees the batch.
func TestPlaneIngestDecodeError(t *testing.T) {
	p := NewPlane(2)
	defer p.Close()
	fb := NewFramebuffer(16, 16)
	fail := func(*particle.Batch, []byte) error { return fmt.Errorf("boom") }
	if err := p.Ingest(fb, testCam(), nil, fail); err == nil {
		t.Fatal("decode error swallowed")
	}
	p.Barrier()
	if fb.Checksum() != NewFramebuffer(16, 16).Checksum() {
		t.Error("failed ingest still splatted")
	}
}

// encodeTestBlob/decodeTestBlob are a minimal wire format for plane
// tests (the real codec lives in internal/core and is tested there).
func encodeTestBlob(b *particle.Batch) []byte {
	var buf bytes.Buffer
	for i := range b.Pos {
		fmt.Fprintf(&buf, "%v %v %v %v %v %v %v %v\n",
			b.Pos[i].X, b.Pos[i].Y, b.Pos[i].Z,
			b.Color[i].X, b.Color[i].Y, b.Color[i].Z,
			b.Alpha[i], b.Size[i])
	}
	return buf.Bytes()
}

func decodeTestBlob(dst *particle.Batch, blob []byte) error {
	dst.Clear()
	for _, line := range bytes.Split(blob, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var pos, color geom.Vec3
		var alpha, size float64
		if _, err := fmt.Sscan(string(line),
			&pos.X, &pos.Y, &pos.Z, &color.X, &color.Y, &color.Z, &alpha, &size); err != nil {
			return err
		}
		dst.Pos = append(dst.Pos, pos)
		dst.Color = append(dst.Color, color)
		dst.Alpha = append(dst.Alpha, alpha)
		dst.Size = append(dst.Size, size)
	}
	return nil
}
