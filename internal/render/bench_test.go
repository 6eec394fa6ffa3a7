package render

import (
	"fmt"
	"io"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

func benchBatch(n int) []particle.Particle {
	r := geom.NewRNG(1)
	ps := make([]particle.Particle, n)
	for i := range ps {
		ps[i] = particle.Particle{
			Pos:   geom.V(r.Range(-10, 10), r.Range(-10, 10), r.Range(-10, 10)),
			Color: geom.V(r.Float64(), r.Float64(), r.Float64()),
			Alpha: 0.5, Size: 0.5,
		}
	}
	return ps
}

// benchCam views benchBatch's cube at 256x256.
func benchCam() OrthoCamera {
	return OrthoCamera{Region: geom.Box(geom.V(-10, -10, -10), geom.V(10, 10, 10)), W: 256, H: 256}
}

// sparseBatch is benchBatch squeezed into the middle tenth of the view:
// about a tenth of the rows end up dirty, each over a tenth of its
// width. benchBatch itself is the dense case — its discs dirty every
// row edge to edge — so a change that buys sparse frames at the price
// of dense ones shows up in the pair.
func sparseBatch(n int) []particle.Particle {
	ps := benchBatch(n)
	for i := range ps {
		ps[i].Pos = ps[i].Pos.Scale(0.1)
	}
	return ps
}

// benchDensities names the two populations the splat and checksum
// benchmarks run over.
var benchDensities = []struct {
	name  string
	batch func(int) []particle.Particle
}{{"dense", benchBatch}, {"sparse", sparseBatch}}

func BenchmarkSplatBatch(b *testing.B) {
	for _, d := range benchDensities {
		b.Run(d.name, func(b *testing.B) {
			fb := NewFramebuffer(256, 256)
			cam := benchCam()
			ps := d.batch(5000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.Clear()
				splatAll(fb, cam, ps)
			}
		})
	}
}

func BenchmarkPerspectiveSplat(b *testing.B) {
	fb := NewFramebuffer(256, 256)
	cam := PerspectiveCamera{Eye: geom.V(0, 0, 30), Look: geom.V(0, 0, 0),
		Up: geom.V(0, 1, 0), FOV: 1, W: 256, H: 256}
	ps := benchBatch(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Clear()
		splatAll(fb, cam, ps)
	}
}

// benchSink keeps the compiler from discarding a benchmarked result.
var benchSink uint64

func BenchmarkChecksum(b *testing.B) {
	for _, d := range benchDensities {
		b.Run(d.name, func(b *testing.B) {
			fb := NewFramebuffer(256, 256)
			splatAll(fb, benchCam(), d.batch(1000))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += fb.Checksum()
			}
		})
	}
}

// BenchmarkFrameSparse is the render-bound frame in tier-1 reach: the
// fountain workload's shape (16 000 small splats in a low horizontal
// band of a 1280x960 view that is otherwise black), one op = the image
// generator's whole frame — Clear, SplatColumns, Checksum.
func BenchmarkFrameSparse(b *testing.B) {
	const w, h, n = 1280, 960, 16000
	cam := OrthoCamera{Region: geom.Box(geom.V(0, -3, -12), geom.V(122, 12, 12)), W: w, H: h}
	r := geom.NewRNG(1)
	cols := &particle.Batch{}
	for i := 0; i < n; i++ {
		cols.Pos = append(cols.Pos, geom.V(r.Range(0, 122), r.Range(0, 3), r.Range(-2, 2)))
		cols.Color = append(cols.Color, geom.V(0.5, 0.7, 1.0))
		cols.Alpha = append(cols.Alpha, 0.6)
		cols.Size = append(cols.Size, 0.25)
	}
	fb := NewFramebuffer(w, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Clear()
		fb.SplatColumns(cam, cols)
		benchSink += fb.Checksum()
	}
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/(w*h), "ns/px")
	b.ReportMetric(perOp/n, "ns/particle")
}

func BenchmarkWritePPM(b *testing.B) {
	fb := NewFramebuffer(256, 256)
	cam := benchCam()
	splatAll(fb, cam, benchBatch(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fb.WritePPM(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchColumns is benchBatch as a columnar render batch.
func benchColumns(n int) *particle.Batch {
	ps := benchBatch(n)
	cols := &particle.Batch{}
	for i := range ps {
		cols.Pos = append(cols.Pos, ps[i].Pos)
		cols.Color = append(cols.Color, ps[i].Color)
		cols.Alpha = append(cols.Alpha, ps[i].Alpha)
		cols.Size = append(cols.Size, ps[i].Size)
	}
	return cols
}

// benchDecode stands in for the wire decode in plane benchmarks: it
// copies a template's render columns into the leased batch, charging
// roughly what decodeRenderColumnsInto charges without dragging the
// core codec into this package.
func benchDecode(src *particle.Batch) func(*particle.Batch, []byte) error {
	return func(dst *particle.Batch, _ []byte) error {
		dst.Clear()
		dst.Pos = append(dst.Pos, src.Pos...)
		dst.Color = append(dst.Color, src.Color...)
		dst.Alpha = append(dst.Alpha, src.Alpha...)
		dst.Size = append(dst.Size, src.Size...)
		return nil
	}
}

// BenchmarkRenderTiled is the tiled-vs-serial number: one op renders a
// frame of 8 ingested batches, either through the serial splatter or
// through a plane of the given width. On a single-core host the widths
// are expected flat.
func BenchmarkRenderTiled(b *testing.B) {
	const nBatches, perBatch = 8, 2000
	cam := benchCam()
	decode := benchDecode(benchColumns(perBatch))
	b.Run("serial", func(b *testing.B) {
		fb := NewFramebuffer(256, 256)
		var wire particle.Batch
		for i := 0; i < b.N; i++ {
			fb.Clear()
			for j := 0; j < nBatches; j++ {
				if err := decode(&wire, nil); err != nil {
					b.Fatal(err)
				}
				fb.SplatColumns(cam, &wire)
			}
		}
	})
	for _, width := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", width), func(b *testing.B) {
			p := NewPlane(width)
			defer p.Close()
			fb := NewFramebuffer(256, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.Clear()
				for j := 0; j < nBatches; j++ {
					if err := p.Ingest(fb, cam, nil, decode); err != nil {
						b.Fatal(err)
					}
				}
				p.Barrier()
			}
		})
	}
}
