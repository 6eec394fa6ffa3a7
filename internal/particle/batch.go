package particle

import "pscluster/internal/geom"

// Batch holds a run of particles in columnar (struct-of-arrays) layout:
// one slice per field, index i across every column describing particle
// i. The batch kernels in internal/actions stream over single columns
// instead of whole particle records, and the wire codec serializes whole
// column ranges into one buffer — the data-plane counterpart of the
// paper's storage-structure rewrite (§4).
//
// All columns always have the same length; mutate elements through the
// exported slices freely, but grow or shrink only through the Batch
// methods so the invariant holds.
type Batch struct {
	Pos, Up, Vel, Color []geom.Vec3
	Age, Alpha, Size    []float64
	Rand                []uint64
	Dead                []bool
}

// Len returns the number of particles in the batch.
func (b *Batch) Len() int { return len(b.Pos) }

// Clear truncates every column to zero length, keeping capacity.
func (b *Batch) Clear() {
	b.Pos, b.Up, b.Vel, b.Color = b.Pos[:0], b.Up[:0], b.Vel[:0], b.Color[:0]
	b.Age, b.Alpha, b.Size = b.Age[:0], b.Alpha[:0], b.Size[:0]
	b.Rand, b.Dead = b.Rand[:0], b.Dead[:0]
}

// Grow extends every column by n zero-valued particles, reusing spare
// column capacity without allocating.
func (b *Batch) Grow(n int) {
	m := b.Len() + n
	b.Pos, b.Up = growCol(b.Pos, m), growCol(b.Up, m)
	b.Vel, b.Color = growCol(b.Vel, m), growCol(b.Color, m)
	b.Age, b.Alpha = growCol(b.Age, m), growCol(b.Alpha, m)
	b.Size = growCol(b.Size, m)
	b.Rand, b.Dead = growCol(b.Rand, m), growCol(b.Dead, m)
}

// growCol resizes one column to m elements, zeroing any reused tail.
func growCol[T any](s []T, m int) []T {
	if cap(s) < m {
		return append(s, make([]T, m-len(s))...)
	}
	old := len(s)
	s = s[:m]
	var zero T
	for i := old; i < m; i++ {
		s[i] = zero
	}
	return s
}

// Truncate shrinks the batch to its first n particles.
func (b *Batch) Truncate(n int) {
	b.Pos, b.Up, b.Vel, b.Color = b.Pos[:n], b.Up[:n], b.Vel[:n], b.Color[:n]
	b.Age, b.Alpha, b.Size = b.Age[:n], b.Alpha[:n], b.Size[:n]
	b.Rand, b.Dead = b.Rand[:n], b.Dead[:n]
}

// At assembles particle i from the columns.
func (b *Batch) At(i int) Particle {
	return Particle{
		Pos: b.Pos[i], Up: b.Up[i], Vel: b.Vel[i], Color: b.Color[i],
		Age: b.Age[i], Alpha: b.Alpha[i], Size: b.Size[i],
		Rand: b.Rand[i], Dead: b.Dead[i],
	}
}

// Set scatters p into the columns at index i.
func (b *Batch) Set(i int, p Particle) {
	b.Pos[i], b.Up[i], b.Vel[i], b.Color[i] = p.Pos, p.Up, p.Vel, p.Color
	b.Age[i], b.Alpha[i], b.Size[i] = p.Age, p.Alpha, p.Size
	b.Rand[i], b.Dead[i] = p.Rand, p.Dead
}

// Append adds one particle at the end of the batch.
func (b *Batch) Append(p Particle) {
	b.Pos, b.Up, b.Vel, b.Color = append(b.Pos, p.Pos), append(b.Up, p.Up),
		append(b.Vel, p.Vel), append(b.Color, p.Color)
	b.Age, b.Alpha, b.Size = append(b.Age, p.Age), append(b.Alpha, p.Alpha),
		append(b.Size, p.Size)
	b.Rand, b.Dead = append(b.Rand, p.Rand), append(b.Dead, p.Dead)
}

// AppendIndex adds particle i of src at the end of the batch without
// materializing it.
func (b *Batch) AppendIndex(src *Batch, i int) {
	b.Pos, b.Up, b.Vel, b.Color = append(b.Pos, src.Pos[i]), append(b.Up, src.Up[i]),
		append(b.Vel, src.Vel[i]), append(b.Color, src.Color[i])
	b.Age, b.Alpha, b.Size = append(b.Age, src.Age[i]), append(b.Alpha, src.Alpha[i]),
		append(b.Size, src.Size[i])
	b.Rand, b.Dead = append(b.Rand, src.Rand[i]), append(b.Dead, src.Dead[i])
}

// AppendBatch adds every particle of src, column by column.
func (b *Batch) AppendBatch(src *Batch) {
	b.Pos, b.Up = append(b.Pos, src.Pos...), append(b.Up, src.Up...)
	b.Vel, b.Color = append(b.Vel, src.Vel...), append(b.Color, src.Color...)
	b.Age, b.Alpha = append(b.Age, src.Age...), append(b.Alpha, src.Alpha...)
	b.Size = append(b.Size, src.Size...)
	b.Rand, b.Dead = append(b.Rand, src.Rand...), append(b.Dead, src.Dead...)
}

// AppendSlice adds every particle of ps.
func (b *Batch) AppendSlice(ps []Particle) {
	for i := range ps {
		b.Append(ps[i])
	}
}

// All materializes the batch as a particle slice.
func (b *Batch) All() []Particle {
	out := make([]Particle, b.Len())
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}

// copyElem copies particle src over particle dst within the batch.
func (b *Batch) copyElem(dst, src int) {
	b.Pos[dst], b.Up[dst], b.Vel[dst], b.Color[dst] = b.Pos[src], b.Up[src], b.Vel[src], b.Color[src]
	b.Age[dst], b.Alpha[dst], b.Size[dst] = b.Age[src], b.Alpha[src], b.Size[src]
	b.Rand[dst], b.Dead[dst] = b.Rand[src], b.Dead[src]
}
