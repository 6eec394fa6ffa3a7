package actions

import (
	"math"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// gridIndex hashes a position into an integer cell for neighbor search.
func gridIndex(p geom.Vec3, cell float64) [3]int {
	return [3]int{
		int(math.Floor(p.X / cell)),
		int(math.Floor(p.Y / cell)),
		int(math.Floor(p.Z / cell)),
	}
}

// cellList is the linked-cell neighbor structure of MD codes in CSR
// form: the occupied cells of a position column, each holding its
// members' indices. Cell ids are handed out from 1 in first-seen order;
// an open-addressed table maps a cell key to its id, and a stable
// counting sort files the indices so that members(id) lists a cell's
// particles in ascending index. Membership is fixed at build time: a
// particle pushed out of its cell mid-sweep stays filed where it was.
// Every slice is scratch reused across builds, so a build over an
// unchanged population allocates nothing.
//
// The table is a dense grid over the keys' bounding box folded into a
// power of two: a key's home slot is x*sx + y*sy + z, wrapped. The
// strides give the box, grown by one cell on every side, a slot per
// cell, so when the box fits the table no two cells share a home, and
// the three z-neighbors of a cell sit in adjacent slots. Probing steps
// by probeStep, an odd constant that cycles the table and leaves the
// run of a column's z-consecutive keys in one step.
type cellList struct {
	keys   [][3]int // cell id -> key; keys[0] is a placeholder, so keys[table[s]] needs no branch
	table  []int32  // slot -> cell id; 0 marks an empty slot
	cellOf []int32  // index -> cell id
	start  []int32  // cell id -> offset of its members in order; one past the last cell closes it
	order  []int32
	sx, sy uint   // strides of the home slot
	lo, hi [3]int // the keys' bounding box
}

// probeStep is the distance between the slots of a probe sequence.
const probeStep = 61

// home returns the slot a probe for key k starts at.
func (g *cellList) home(k [3]int) uint {
	return (uint(k[0])*g.sx + uint(k[1])*g.sy + uint(k[2])) & uint(len(g.table)-1)
}

// find returns the slot holding key k, or the empty slot that ends its
// probe sequence — where k goes if it is to be inserted.
func (g *cellList) find(k [3]int) uint {
	mask := uint(len(g.table) - 1)
	s := g.home(k)
	for g.table[s] != 0 && g.keys[g.table[s]] != k {
		s = (s + probeStep) & mask
	}
	return s
}

// build files every position of pos under its cell of the given size.
func (g *cellList) build(pos []geom.Vec3, cell float64) {
	// Load factor <= 1/8. Most of the 27 cells around a particle are
	// empty, and in a sparse table an empty cell is told from its first
	// slot, on a branch that predicts: against 1/2 this took a quarter
	// off the colliding-jets frame (EXPERIMENTS.md "PR 24").
	size := 16
	for size < 8*len(pos) {
		size <<= 1
	}
	if cap(g.table) < size {
		g.table = make([]int32, size)
	}
	g.table = g.table[:size]
	clear(g.table)
	if cap(g.cellOf) < len(pos) {
		// There are at most as many cells as positions, so none of the
		// appends below grows a slice.
		g.cellOf, g.order = make([]int32, len(pos)), make([]int32, len(pos))
		g.keys, g.start = make([][3]int, 0, len(pos)+1), make([]int32, 0, len(pos)+2)
	}
	g.cellOf, g.order = g.cellOf[:len(pos)], g.order[:len(pos)]
	g.keys = append(g.keys[:0], [3]int{})
	g.start = append(g.start[:0], 0, 0)
	g.lo, g.hi = [3]int{}, [3]int{}
	if len(pos) > 0 {
		g.lo = gridIndex(pos[0], cell)
		g.hi = g.lo
	}
	for i := range pos {
		k := gridIndex(pos[i], cell)
		for a := range k {
			g.lo[a], g.hi[a] = min(g.lo[a], k[a]), max(g.hi[a], k[a])
		}
	}
	// The extents wrap like the keys: a box wider than an int folds
	// badly and costs probe steps, never a wrong cell.
	g.sy = (uint(g.hi[2]-g.lo[2]) + 3) | 1
	g.sx = (g.sy * (uint(g.hi[1]-g.lo[1]) + 3)) | 1
	for i := range pos {
		k := gridIndex(pos[i], cell)
		s := g.find(k)
		if g.table[s] == 0 {
			g.table[s] = int32(len(g.keys))
			g.keys = append(g.keys, k)
			g.start = append(g.start, 0)
		}
		id := g.table[s]
		g.cellOf[i] = id
		g.start[id+1]++
	}
	// Counts -> offsets, then file each index at its cell's cursor;
	// the cursors end one cell ahead and are shifted back.
	for id := 1; id < len(g.start); id++ {
		g.start[id] += g.start[id-1]
	}
	for i, id := range g.cellOf {
		g.order[g.start[id]] = int32(i)
		g.start[id]++
	}
	copy(g.start[1:], g.start)
	g.start[0] = 0
}

// members returns the indices filed under cell id, ascending.
func (g *cellList) members(id int32) []int32 {
	return g.order[g.start[id]:g.start[id+1]]
}

// around stores the ids of the occupied cells among the 27 around k
// into ids, in dx, dy, dz order, and returns how many there are. The
// key arithmetic wraps like the keys themselves, so a coordinate too
// large for an int still finds the cells it was filed next to.
//
// A slot is tested with one branch: the slot's id, placeholder or not,
// indexes keys, and the key compare is masked by the slot's occupancy,
// so an empty slot and a slot holding the cell both end the probe and
// only the occupancy counts. Only a home slot holding some other key
// goes on probing.
func (g *cellList) around(k [3]int, ids *[27]int32) int {
	table, keys := g.table, g.keys
	mask, sx, sy := uint(len(table)-1), g.sx, g.sy
	n := 0
	for dx := -1; dx <= 1; dx++ {
		x := uint(k[0] + dx)
		for dy := -1; dy <= 1; dy++ {
			y := uint(k[1] + dy)
			row := x*sx + y*sy
			for dz := -1; dz <= 1; dz++ {
				z := uint(k[2] + dz)
				for s := (row + z) & mask; ; s = (s + probeStep) & mask {
					id := table[s]
					q := &keys[id]
					occ := uint(-int64(id)) >> 63
					if ((uint(q[0])^x)|(uint(q[1])^y)|(uint(q[2])^z))&-occ == 0 {
						ids[n] = id
						n += int(occ)
						break
					}
				}
			}
		}
	}
	return n
}

// reach returns the box of cell keys from which around can find an
// occupied cell: the bounding box of the keys grown by one. ok is false
// when there is no cell, or when growing the box overflows — a key at
// the edge of int has neighbors on the far side, which no box holds.
func (g *cellList) reach() (lo, hi [3]int, ok bool) {
	lo, hi = g.lo, g.hi
	if len(g.keys) == 1 {
		return lo, hi, false
	}
	for a := range lo {
		if lo[a] == math.MinInt || hi[a] == math.MaxInt {
			return lo, hi, false
		}
		lo[a]--
		hi[a]++
	}
	return lo, hi, true
}

// StoreScratch is the working memory of the store actions, owned by
// the caller — one per calculator — and reused from call to call, so a
// StoreAction over an unchanged population allocates nothing. The zero
// value is ready; it must not be shared between concurrent calls.
type StoreScratch struct {
	pos, vel   []geom.Vec3 // the store's Pos and Vel columns, flat, in store order
	own, ghost cellList
	targets    []geom.Vec3 // MatchVelocity's first pass
	has        []bool
}

// gather copies the store's Pos and Vel columns into the flat scratch
// columns, bins ascending, so that index i is the i-th particle in
// store order whichever bin holds it.
func (sc *StoreScratch) gather(st *particle.ColumnStore) (pos, vel []geom.Vec3) {
	pos, vel = sc.pos[:0], sc.vel[:0]
	for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
		b := st.Bin(bi)
		pos, vel = append(pos, b.Pos...), append(vel, b.Vel...)
	}
	sc.pos, sc.vel = pos, vel
	return pos, vel
}

// scatter writes the flat columns back to the bin slots gather read
// them from. Nothing is re-binned: a particle keeps its slot wherever
// the action moved it, and the exchange scan re-bins it.
func (sc *StoreScratch) scatter(st *particle.ColumnStore) {
	off := 0
	for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
		b := st.Bin(bi)
		copy(b.Pos, sc.pos[off:])
		copy(b.Vel, sc.vel[off:])
		off += b.Len()
	}
}

// CollideParticles performs elastic collisions between particles closer
// than Radius — the inter-particle collision detection the model's data
// locality exists to support (§3.1.4: without domains, "it would be
// necessary to test collision with all the particles of all the
// processes"). It is a StoreAction: its cost depends on local density.
type CollideParticles struct {
	Radius     float64
	Elasticity float64
}

// Name implements Action.
func (a *CollideParticles) Name() string { return "collide-particles" }

// Kind implements Action.
func (a *CollideParticles) Kind() Kind { return KindStore }

// Cost implements Action: base per-particle cost; pair tests add more in
// ApplyStore's return value.
func (a *CollideParticles) Cost() float64 { return 2.0 }

// ApplyStore implements StoreAction: ApplyWithGhosts with no ghosts.
func (a *CollideParticles) ApplyStore(ctx *Context, sc *StoreScratch, st *particle.ColumnStore) float64 {
	return a.ApplyWithGhosts(ctx, sc, st, nil)
}

// ApplyWithGhosts resolves collisions among the store's particles and
// then against read-only ghost copies owned by other processes (nil for
// none). Overlapping pairs exchange the normal components of their
// velocities scaled by Elasticity, and are pushed apart to the contact
// distance. Each owner applies its own side of a cross-process pair;
// the impulse formula is antisymmetric, so the two owners' independent
// computations agree and momentum is conserved globally.
//
// The sweep order is part of the engine's bit-identity. Particles are
// visited in store order; each looks up the 27 cells around its current
// position — which a push may have moved out of the cell it is filed
// under — in dx, dy, dz order, members in ascending store index, and
// every neighbor visited is charged a pair test, so a pair is charged
// from both ends. The pair is resolved at the one end where pairOrdered
// holds on the positions and velocities as they are at that visit. The
// ghost pass is a second full sweep after the own pairs.
func (a *CollideParticles) ApplyWithGhosts(_ *Context, sc *StoreScratch, st *particle.ColumnStore,
	ghosts *particle.Batch) float64 {
	pos, vel := sc.gather(st)
	sc.own.build(pos, a.Radius)
	work := a.Cost()*float64(len(pos)) + a.sweepOwn(&sc.own, pos, vel)
	if ghosts != nil && ghosts.Len() > 0 {
		sc.ghost.build(ghosts.Pos, a.Radius)
		work += a.sweepGhosts(&sc.ghost, pos, vel, ghosts)
	}
	sc.scatter(st)
	return work
}

// sweepOwn resolves the pairs within pos/vel and returns their work.
func (a *CollideParticles) sweepOwn(g *cellList, pos, vel []geom.Vec3) float64 {
	var work float64
	var ids [27]int32
	r2 := a.Radius * a.Radius
	for i := range pos {
		for _, id := range ids[:g.around(gridIndex(pos[i], a.Radius), &ids)] {
			for _, j := range g.members(id) {
				if int(j) == i {
					continue
				}
				work += 0.25 // pair test
				d := pos[j].Sub(pos[i])
				dist2 := d.Len2()
				if dist2 >= r2 || dist2 == 0 {
					continue
				}
				if !pairOrdered(pos[i], vel[i], pos[j], vel[j]) {
					continue
				}
				n := d.Norm()
				rel := vel[i].Sub(vel[j]).Dot(n)
				if rel <= 0 {
					continue // separating
				}
				impulse := n.Scale(rel * (1 + a.Elasticity) / 2)
				vel[i] = vel[i].Sub(impulse)
				vel[j] = vel[j].Add(impulse)
				// Positional de-penetration, split evenly.
				overlap := a.Radius - math.Sqrt(dist2)
				push := n.Scale(overlap / 2)
				pos[i] = pos[i].Sub(push)
				pos[j] = pos[j].Add(push)
				work += 2
			}
		}
	}
	return work
}

// pairOrdered picks the end an unordered pair is resolved from: the
// particle that is lower by position, then velocity, at the moment of
// the visit. It is evaluated on live state, so it is neither "the lower
// store index" nor stable across a sweep: a pair one end declined can
// be declined again from the other end after a push reordered it, and a
// pair equal in all six components is never resolved.
func pairOrdered(pp, pv, qp, qv geom.Vec3) bool {
	switch {
	case pp.X != qp.X:
		return pp.X < qp.X
	case pp.Y != qp.Y:
		return pp.Y < qp.Y
	case pp.Z != qp.Z:
		return pp.Z < qp.Z
	case pv.X != qv.X:
		return pv.X < qv.X
	case pv.Y != qv.Y:
		return pv.Y < qv.Y
	default:
		return pv.Z < qv.Z
	}
}

// sweepGhosts resolves each particle of pos/vel against the ghosts
// filed in g, moving only the particle, and returns the work. A
// particle whose cell lies outside the ghost cells' reach has no ghost
// among its 27 cells and is skipped without a lookup.
func (a *CollideParticles) sweepGhosts(g *cellList, pos, vel []geom.Vec3, ghosts *particle.Batch) float64 {
	var work float64
	var ids [27]int32
	r2 := a.Radius * a.Radius
	lo, hi, bounded := g.reach()
	for i := range pos {
		k := gridIndex(pos[i], a.Radius)
		if bounded && (k[0] < lo[0] || k[0] > hi[0] || k[1] < lo[1] || k[1] > hi[1] ||
			k[2] < lo[2] || k[2] > hi[2]) {
			continue
		}
		for _, id := range ids[:g.around(k, &ids)] {
			for _, j := range g.members(id) {
				work += 0.25
				d := ghosts.Pos[j].Sub(pos[i])
				dist2 := d.Len2()
				if dist2 >= r2 || dist2 == 0 {
					continue
				}
				n := d.Norm()
				rel := vel[i].Sub(ghosts.Vel[j]).Dot(n)
				if rel <= 0 {
					continue
				}
				impulse := n.Scale(rel * (1 + a.Elasticity) / 2)
				vel[i] = vel[i].Sub(impulse)
				overlap := a.Radius - math.Sqrt(dist2)
				pos[i] = pos[i].Sub(n.Scale(overlap / 2))
				work++
			}
		}
	}
	return work
}

// MatchVelocity blends each particle's velocity toward the average of
// its neighbors within Radius — the flocking primitive of the original
// API, included as a second locality-dependent action.
type MatchVelocity struct {
	Radius   float64
	Strength float64 // blend fraction per second
}

// Name implements Action.
func (a *MatchVelocity) Name() string { return "match-velocity" }

// Kind implements Action.
func (a *MatchVelocity) Kind() Kind { return KindStore }

// Cost implements Action.
func (a *MatchVelocity) Cost() float64 { return 2.0 }

// ApplyStore implements StoreAction.
func (a *MatchVelocity) ApplyStore(ctx *Context, sc *StoreScratch, st *particle.ColumnStore) float64 {
	pos, vel := sc.gather(st)
	g := &sc.own
	g.build(pos, a.Radius)
	work := a.Cost() * float64(len(pos))
	r2 := a.Radius * a.Radius
	// Two passes so the result does not depend on iteration order:
	// compute all averages against the pre-update velocities first.
	if cap(sc.targets) < len(pos) {
		sc.targets, sc.has = make([]geom.Vec3, len(pos)), make([]bool, len(pos))
	}
	targets, has := sc.targets[:len(pos)], sc.has[:len(pos)]
	var ids [27]int32
	for i := range pos {
		var sum geom.Vec3
		n := 0
		for _, id := range ids[:g.around(gridIndex(pos[i], a.Radius), &ids)] {
			for _, j := range g.members(id) {
				if int(j) == i {
					continue
				}
				work += 0.25
				if pos[j].Sub(pos[i]).Len2() < r2 {
					sum = sum.Add(vel[j])
					n++
				}
			}
		}
		has[i] = n > 0
		if n > 0 {
			targets[i] = sum.Scale(1 / float64(n))
		}
	}
	t := a.Strength * ctx.DT
	if t > 1 {
		t = 1
	}
	for i := range vel {
		if has[i] {
			vel[i] = vel[i].Lerp(targets[i], t)
		}
	}
	sc.scatter(st)
	return work
}
