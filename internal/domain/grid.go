package domain

import (
	"encoding/binary"
	"fmt"
	"math"

	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
)

// Grid is a 2-D decomposition: space is cut into cols × rows cells in
// the axisA × axisB plane (the third axis is never split — particle
// animations are shallow along one axis, and two split axes already
// break the slab degeneracy). Column cuts and row cuts move
// independently during Rebalance, after the dynamic MD grid
// decomposition of arXiv:cs/0405086: each family of cuts shifts toward
// the heavier side of its own marginal load.
//
// Rank layout is row-major: rank = row·cols + col.
type Grid struct {
	axisA, axisB geom.Axis // column axis, row axis
	colCuts      []float64 // len cols+1, along axisA
	rowCuts      []float64 // len rows+1, along axisB
	stepA, stepB float64   // max cut movement per Rebalance call
}

// SplitFactors factors n calculators into cols × rows with cols the
// largest divisor of n not exceeding √n — the squarest grid that uses
// every rank. Prime n degenerates to 1 × n (a slab along axisB).
func SplitFactors(n int) (cols, rows int) {
	cols = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			cols = d
		}
	}
	return cols, n / cols
}

// NewGrid returns an equal-spacing cols × rows grid over
// [loA, hiA] × [loB, hiB] for n calculators. stepFrac bounds each
// Rebalance cut movement to that fraction of the matching extent.
func NewGrid(axisA, axisB geom.Axis, loA, hiA, loB, hiB float64, n int, stepFrac float64) (*Grid, error) {
	if axisA == axisB {
		return nil, fmt.Errorf("domain: grid axes must differ, got %s twice", axisA)
	}
	if n < 1 {
		return nil, fmt.Errorf("domain: need at least one domain, got %d", n)
	}
	if !(loA < hiA) || !(loB < hiB) {
		return nil, fmt.Errorf("domain: empty grid space [%g,%g]x[%g,%g]", loA, hiA, loB, hiB)
	}
	if !(stepFrac > 0) || stepFrac > 0.5 {
		return nil, fmt.Errorf("domain: grid step fraction %g outside (0, 0.5]", stepFrac)
	}
	cols, rows := SplitFactors(n)
	return &Grid{
		axisA:   axisA,
		axisB:   axisB,
		colCuts: equalCuts(loA, hiA, cols),
		rowCuts: equalCuts(loB, hiB, rows),
		stepA:   (hiA - loA) * stepFrac,
		stepB:   (hiB - loB) * stepFrac,
	}, nil
}

func equalCuts(lo, hi float64, n int) []float64 {
	cuts := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		cuts[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	cuts[n] = hi // guard against floating-point drift at the last cut
	return cuts
}

// Cols returns the number of grid columns.
func (g *Grid) Cols() int { return len(g.colCuts) - 1 }

// Rows returns the number of grid rows.
func (g *Grid) Rows() int { return len(g.rowCuts) - 1 }

// N returns the number of domains.
func (g *Grid) N() int { return g.Cols() * g.Rows() }

// Kind identifies the grid strategy.
func (g *Grid) Kind() Kind { return KindGrid }

func (g *Grid) cell(rank int) (col, row int) { return rank % g.Cols(), rank / g.Cols() }

// OwnerOf returns the rank of the grid cell containing p. Called once
// per particle per exchange in the non-slab migration path.
func (g *Grid) OwnerOf(p geom.Vec3) int {
	col := ownerIn(g.colCuts, p.Component(g.axisA))
	row := ownerIn(g.rowCuts, p.Component(g.axisB))
	return row*g.Cols() + col
}

// NeighborsOf returns the ranks of the up-to-8 cells surrounding
// rank's cell, ascending (diagonals included: a particle band near a
// corner can cross into the diagonal cell).
func (g *Grid) NeighborsOf(rank int) []int {
	col, row := g.cell(rank)
	ns := make([]int, 0, 8)
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 {
				continue
			}
			r, c := row+dr, col+dc
			if r < 0 || r >= g.Rows() || c < 0 || c >= g.Cols() {
				continue
			}
			ns = append(ns, r*g.Cols()+c)
		}
	}
	return ns
}

// NeighborBand returns the part of rank's cell within radius of the
// boundary it shares with neighbor: a face strip for edge neighbors,
// the corner square for diagonal ones. Cut-side asymmetry matches the
// half-open cell intervals (see axisCut).
func (g *Grid) NeighborBand(rank, neighbor int, radius float64) Region {
	col, row := g.cell(rank)
	ncol, nrow := g.cell(neighbor)
	dc, dr := ncol-col, nrow-row
	if neighbor < 0 || neighbor >= g.N() || (dc == 0 && dr == 0) ||
		dc < -1 || dc > 1 || dr < -1 || dr > 1 {
		return noSpace{}
	}
	var band cutBand
	switch dc {
	case -1:
		band = append(band, axisCut{axis: g.axisA, x: g.colCuts[col] + radius, below: true})
	case 1:
		band = append(band, axisCut{axis: g.axisA, x: g.colCuts[col+1] - radius, below: false})
	}
	switch dr {
	case -1:
		band = append(band, axisCut{axis: g.axisB, x: g.rowCuts[row] + radius, below: true})
	case 1:
		band = append(band, axisCut{axis: g.axisB, x: g.rowCuts[row+1] - radius, below: false})
	}
	return band
}

// Rebalance shifts the column cuts toward the heavier columns and the
// row cuts toward the heavier rows, independently, each by at most its
// step bound. The marginal loads are plain sums over the 2-D load
// matrix, so a hot cell pulls both its column and its row cuts inward.
func (g *Grid) Rebalance(loads []float64) bool {
	if len(loads) != g.N() {
		return false
	}
	colLoads := make([]float64, g.Cols())
	rowLoads := make([]float64, g.Rows())
	for rank, l := range loads {
		col, row := g.cell(rank)
		colLoads[col] += l
		rowLoads[row] += l
	}
	movedA := loadbalance.ShiftCuts(g.colCuts, colLoads, g.stepA)
	movedB := loadbalance.ShiftCuts(g.rowCuts, rowLoads, g.stepB)
	return movedA || movedB
}

// AppendWire appends the grid wire form: header, both axes, cut
// counts, step bounds, column cuts, row cuts.
func (g *Grid) AppendWire(dst []byte) []byte {
	dst = appendWireHeader(dst, KindGrid, 2+8+16+8*(len(g.colCuts)+len(g.rowCuts)))
	dst = append(dst, byte(g.axisA), byte(g.axisB))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.colCuts)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.rowCuts)))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(g.stepA))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(g.stepB))
	for _, c := range g.colCuts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	for _, c := range g.rowCuts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

func decodeGrid(p []byte) (Decomposition, error) {
	if len(p) < 26 {
		return nil, fmt.Errorf("domain: grid payload too short: %d bytes", len(p))
	}
	axisA, axisB := geom.Axis(p[0]), geom.Axis(p[1])
	if axisA > geom.AxisZ || axisB > geom.AxisZ {
		return nil, fmt.Errorf("domain: grid axis out of range (%d, %d)", p[0], p[1])
	}
	if axisA == axisB {
		return nil, fmt.Errorf("domain: grid axes equal (%s)", axisA)
	}
	nc := int(binary.LittleEndian.Uint32(p[2:]))
	nr := int(binary.LittleEndian.Uint32(p[6:]))
	if nc < 2 || nc > maxWireRanks || nr < 2 || nr > maxWireRanks {
		return nil, fmt.Errorf("domain: grid cut counts (%d, %d) out of range", nc, nr)
	}
	if want := 26 + 8*(nc+nr); len(p) != want {
		return nil, fmt.Errorf("domain: grid payload %d bytes, want %d", len(p), want)
	}
	stepA := math.Float64frombits(binary.LittleEndian.Uint64(p[10:]))
	stepB := math.Float64frombits(binary.LittleEndian.Uint64(p[18:]))
	if !finite(stepA) || !finite(stepB) || stepA < 0 || stepB < 0 {
		return nil, fmt.Errorf("domain: grid steps (%g, %g) invalid", stepA, stepB)
	}
	readCuts := func(off, n int, what string) ([]float64, error) {
		cuts := make([]float64, n)
		for i := range cuts {
			cuts[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off+8*i:]))
			if !finite(cuts[i]) {
				return nil, fmt.Errorf("domain: grid %s cut %d not finite", what, i)
			}
			if i > 0 && cuts[i] < cuts[i-1] {
				return nil, fmt.Errorf("domain: grid %s cuts not monotonic at %d", what, i)
			}
		}
		return cuts, nil
	}
	colCuts, err := readCuts(26, nc, "column")
	if err != nil {
		return nil, err
	}
	rowCuts, err := readCuts(26+8*nc, nr, "row")
	if err != nil {
		return nil, err
	}
	return &Grid{axisA: axisA, axisB: axisB, colCuts: colCuts, rowCuts: rowCuts,
		stepA: stepA, stepB: stepB}, nil
}
