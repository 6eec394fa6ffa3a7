package actions

import (
	"math"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

func storeWith(ps ...particle.Particle) *particle.ColumnStore {
	s := particle.NewColumnStore(geom.AxisX, -100, 100, 8)
	addAll(s, ps)
	return s
}

// addAll stores every particle in ps, in order.
func addAll(s *particle.ColumnStore, ps []particle.Particle) {
	for i := range ps {
		s.Add(ps[i])
	}
}

// applyStore runs a store action the way the engines do, on the binned
// store, with fresh scratch.
func applyStore(a StoreAction, s *particle.ColumnStore) float64 {
	return a.ApplyStore(ctx(), &StoreScratch{}, s)
}

func TestCollideHeadOn(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(1, 0, 0)},
		particle.Particle{Pos: geom.V(0.5, 0, 0), Vel: geom.V(-1, 0, 0)},
	)
	applyStore(a, s)
	ps := s.All()
	// Fully elastic head-on equal-mass collision swaps velocities.
	var left, right particle.Particle
	for _, p := range ps {
		if p.Vel.X < 0 {
			left = p
		} else {
			right = p
		}
	}
	if math.Abs(left.Vel.X+1) > 1e-9 || math.Abs(right.Vel.X-1) > 1e-9 {
		t.Errorf("velocities after elastic swap: %v / %v", left.Vel, right.Vel)
	}
}

func TestCollideConservesMomentum(t *testing.T) {
	a := &CollideParticles{Radius: 2, Elasticity: 0.7}
	r := geom.NewRNG(9)
	var ps []particle.Particle
	for i := 0; i < 200; i++ {
		ps = append(ps, particle.Particle{
			Pos: geom.V(r.Range(-10, 10), r.Range(-10, 10), r.Range(-10, 10)),
			Vel: r.UnitVec().Scale(r.Range(0, 5)),
		})
	}
	var before geom.Vec3
	for _, p := range ps {
		before = before.Add(p.Vel)
	}
	s := storeWith(ps...)
	applyStore(a, s)
	var after geom.Vec3
	for _, p := range s.All() {
		after = after.Add(p.Vel)
	}
	if before.Dist(after) > 1e-6 {
		t.Errorf("momentum changed: %v -> %v", before, after)
	}
}

func TestCollideSeparatingPairUntouched(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(-1, 0, 0)},
		particle.Particle{Pos: geom.V(0.5, 0, 0), Vel: geom.V(1, 0, 0)},
	)
	applyStore(a, s)
	for _, p := range s.All() {
		if math.Abs(p.Vel.X) != 1 {
			t.Errorf("separating pair modified: %v", p.Vel)
		}
	}
}

func TestCollideDistantPairsUntouched(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(1, 0, 0)},
		particle.Particle{Pos: geom.V(50, 0, 0), Vel: geom.V(-1, 0, 0)},
	)
	applyStore(a, s)
	for _, p := range s.All() {
		if p.Vel.Len() != 1 {
			t.Errorf("distant pair modified: %v", p.Vel)
		}
	}
}

func TestCollideWorkGrowsWithDensity(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 1}
	r := geom.NewRNG(2)
	dense := make([]particle.Particle, 100)
	for i := range dense {
		dense[i].Pos = geom.V(r.Range(0, 2), r.Range(0, 2), r.Range(0, 2))
	}
	sparse := make([]particle.Particle, 100)
	for i := range sparse {
		sparse[i].Pos = geom.V(r.Range(-90, 90), r.Range(-90, 90), r.Range(-90, 90))
	}
	wDense := applyStore(a, storeWith(dense...))
	wSparse := applyStore(a, storeWith(sparse...))
	if wDense <= wSparse {
		t.Errorf("dense work %v should exceed sparse work %v", wDense, wSparse)
	}
}

func TestMatchVelocityBlends(t *testing.T) {
	a := &MatchVelocity{Radius: 5, Strength: 10}
	s := storeWith(
		particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(1, 0, 0)},
		particle.Particle{Pos: geom.V(1, 0, 0), Vel: geom.V(-1, 0, 0)},
	)
	applyStore(a, s)
	// Strength*DT = 1: each fully adopts the other's (pre-update)
	// velocity.
	var sum float64
	for _, p := range s.All() {
		sum += math.Abs(math.Abs(p.Vel.X) - 1)
	}
	if sum > 1e-9 {
		t.Errorf("velocities after full blend: %v", s.All())
	}
}

func TestMatchVelocityLonelyParticleUnchanged(t *testing.T) {
	a := &MatchVelocity{Radius: 1, Strength: 10}
	s := storeWith(particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(3, 2, 1)})
	applyStore(a, s)
	if got := s.All()[0].Vel; got != geom.V(3, 2, 1) {
		t.Errorf("lonely particle vel = %v", got)
	}
}

func TestCollideDeterministic(t *testing.T) {
	a := &CollideParticles{Radius: 1, Elasticity: 0.9}
	fresh := func() *particle.ColumnStore {
		r := geom.NewRNG(77)
		var ps []particle.Particle
		for i := 0; i < 300; i++ {
			ps = append(ps, particle.Particle{
				Pos: geom.V(r.Range(-5, 5), r.Range(-5, 5), r.Range(-5, 5)),
				Vel: r.UnitVec(),
			})
		}
		return storeWith(ps...)
	}
	run := func() []particle.Particle {
		s := fresh()
		applyStore(a, s)
		return s.All()
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("second run diverged at particle %d", i)
		}
	}
}

// ---------------------------------------------------------------------
// Oracle: the map-of-pointers neighbor grid over a flat record slice
// that the cell list replaced, kept verbatim. Its sweep order is the
// contract the columnar kernels are held to, bit for bit.
// ---------------------------------------------------------------------

func buildGrid(ps []particle.Particle, cell float64) map[[3]int][]*particle.Particle {
	grid := make(map[[3]int][]*particle.Particle)
	for i := range ps {
		k := gridIndex(ps[i].Pos, cell)
		grid[k] = append(grid[k], &ps[i])
	}
	return grid
}

func forNeighbors(grid map[[3]int][]*particle.Particle, cell float64,
	p *particle.Particle, fn func(q *particle.Particle)) {
	k := gridIndex(p.Pos, cell)
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				for _, q := range grid[[3]int{k[0] + dx, k[1] + dy, k[2] + dz}] {
					if q != p {
						fn(q)
					}
				}
			}
		}
	}
}

// referenceCollide is CollideParticles.ApplyWithGhosts as it was over
// records: ps mutated in place, ghosts read-only.
func referenceCollide(a *CollideParticles, ps, ghosts []particle.Particle) float64 {
	grid := buildGrid(ps, a.Radius)
	work := a.Cost() * float64(len(ps))
	r2 := a.Radius * a.Radius
	for i := range ps {
		p := &ps[i]
		forNeighbors(grid, a.Radius, p, func(q *particle.Particle) {
			work += 0.25 // pair test
			if !pairOrdered(p.Pos, p.Vel, q.Pos, q.Vel) {
				return
			}
			d := q.Pos.Sub(p.Pos)
			dist2 := d.Len2()
			if dist2 >= r2 || dist2 == 0 {
				return
			}
			n := d.Norm()
			rel := p.Vel.Sub(q.Vel).Dot(n)
			if rel <= 0 {
				return // separating
			}
			impulse := n.Scale(rel * (1 + a.Elasticity) / 2)
			p.Vel = p.Vel.Sub(impulse)
			q.Vel = q.Vel.Add(impulse)
			// Positional de-penetration, split evenly.
			overlap := a.Radius - math.Sqrt(dist2)
			push := n.Scale(overlap / 2)
			p.Pos = p.Pos.Sub(push)
			q.Pos = q.Pos.Add(push)
			work += 2
		})
	}
	if len(ghosts) == 0 {
		return work
	}
	// Index ghosts into the same cell structure.
	ggrid := make(map[[3]int][]int)
	for i := range ghosts {
		k := gridIndex(ghosts[i].Pos, a.Radius)
		ggrid[k] = append(ggrid[k], i)
	}
	for i := range ps {
		p := &ps[i]
		k := gridIndex(p.Pos, a.Radius)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, gi := range ggrid[[3]int{k[0] + dx, k[1] + dy, k[2] + dz}] {
						work += 0.25
						g := &ghosts[gi]
						d := g.Pos.Sub(p.Pos)
						dist2 := d.Len2()
						if dist2 >= r2 || dist2 == 0 {
							continue
						}
						n := d.Norm()
						rel := p.Vel.Sub(g.Vel).Dot(n)
						if rel <= 0 {
							continue
						}
						impulse := n.Scale(rel * (1 + a.Elasticity) / 2)
						p.Vel = p.Vel.Sub(impulse)
						overlap := a.Radius - math.Sqrt(dist2)
						p.Pos = p.Pos.Sub(n.Scale(overlap / 2))
						work += 1
					}
				}
			}
		}
	}
	return work
}

// referenceMatchVelocity is MatchVelocity.ApplyStore as it was over
// records.
func referenceMatchVelocity(a *MatchVelocity, ctx *Context, ps []particle.Particle) float64 {
	grid := buildGrid(ps, a.Radius)
	work := a.Cost() * float64(len(ps))
	r2 := a.Radius * a.Radius
	targets := make([]geom.Vec3, len(ps))
	has := make([]bool, len(ps))
	for i := range ps {
		p := &ps[i]
		var sum geom.Vec3
		n := 0
		forNeighbors(grid, a.Radius, p, func(q *particle.Particle) {
			work += 0.25
			if q.Pos.Sub(p.Pos).Len2() < r2 {
				sum = sum.Add(q.Vel)
				n++
			}
		})
		if n > 0 {
			targets[i] = sum.Scale(1 / float64(n))
			has[i] = true
		}
	}
	t := a.Strength * ctx.DT
	if t > 1 {
		t = 1
	}
	for i := range ps {
		if has[i] {
			ps[i].Vel = ps[i].Vel.Lerp(targets[i], t)
		}
	}
	return work
}

// cloud draws n particles with positions uniform in a cube of the given
// half-extent around center and velocities up to speed, every other
// field distinct so that a misplaced record shows.
func cloud(r *geom.RNG, n int, center geom.Vec3, half, speed float64) []particle.Particle {
	ps := make([]particle.Particle, n)
	for i := range ps {
		ps[i] = particle.Particle{
			Pos:   center.Add(geom.V(r.Range(-half, half), r.Range(-half, half), r.Range(-half, half))),
			Vel:   r.UnitVec().Scale(r.Range(0, speed)),
			Color: geom.V(r.Float64(), r.Float64(), r.Float64()),
			Age:   r.Float64(), Alpha: r.Float64(), Size: r.Float64(),
			Rand: r.Uint64(),
		}
	}
	return ps
}

// sameBits compares two record slices field by field on their bit
// patterns, so -0 differs from 0 and a NaN equals itself.
func sameBits(t *testing.T, what string, got, want []particle.Particle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d particles, want %d", what, len(got), len(want))
	}
	bits := func(v geom.Vec3) [3]uint64 {
		return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
	}
	for i := range want {
		g, w := got[i], want[i]
		if bits(g.Pos) != bits(w.Pos) || bits(g.Vel) != bits(w.Vel) {
			t.Fatalf("%s: particle %d is pos %v vel %v, want pos %v vel %v", what, i, g.Pos, g.Vel, w.Pos, w.Vel)
		}
		g.Pos, g.Vel, w.Pos, w.Vel = geom.Vec3{}, geom.Vec3{}, geom.Vec3{}, geom.Vec3{}
		if g != w {
			t.Fatalf("%s: particle %d's other fields changed: %+v, want %+v", what, i, g, w)
		}
	}
}

// collideCase is one seeded input of the oracle comparison.
type collideCase struct {
	name       string
	radius     float64
	own, ghost []particle.Particle
}

func collideCases() []collideCase {
	r := geom.NewRNG(2024)
	at := func(x, y, z, vx, vy, vz float64) particle.Particle {
		return particle.Particle{Pos: geom.V(x, y, z), Vel: geom.V(vx, vy, vz), Rand: r.Uint64()}
	}
	// Points on cell corners and faces, both signs, approaching the origin.
	var lattice []particle.Particle
	for x := -2.0; x <= 2; x++ {
		for y := -2.0; y <= 2; y++ {
			for z := -1.0; z <= 1; z += 0.5 {
				lattice = append(lattice, at(x*0.5, y*0.5, z*0.5, -x, -y, -z))
			}
		}
	}
	// Coincident particles: equal in everything (never resolved), equal
	// in position only (dist2 == 0), and a close third that collides.
	coincident := []particle.Particle{
		at(1, 1, 1, 1, 0, 0), at(1, 1, 1, 1, 0, 0), at(1, 1, 1, -1, 0, 0),
		at(1.3, 1, 1, -2, 0, 0), at(-3, -3, -3, 0, 1, 0), at(-3, -3, -3, 0, -1, 0),
	}
	// a, visited first, pushes b from cell 1 into cell 2; b's own visit
	// then reaches c and d in cell 3, which the cell b is filed under
	// does not neighbor.
	pushed := []particle.Particle{
		at(1.75, 0.5, 0.5, 3, 0, 0), at(1.9, 0.5, 0.5, -3, 0, 0), at(3.2, 0.5, 0.5, -1, 0, 0),
		at(3.3, 0.6, 0.5, -2, 0, 0),
	}
	const big = 1e300
	huge := append(cloud(r, 40, geom.V(0, 0, 0), 1.5, 3),
		at(big, 0, 0, -1, 0, 0), at(big, 0.1, 0, 1, 0, 0), at(-big, big, -big, 1, 1, 1),
		at(-big, big, -big, -1, 1, 1), at(9.3e18, 0, 0, 1, 0, 0), at(-9.3e18, 0.2, 0, 1, 0, 0))
	return []collideCase{
		{name: "empty", radius: 1},
		{name: "empty-with-ghosts", radius: 1, ghost: cloud(r, 20, geom.V(0, 0, 0), 2, 1)},
		{name: "sparse", radius: 0.5, own: cloud(r, 300, geom.V(0, 0, 0), 40, 3)},
		{name: "mixed", radius: 1, own: cloud(r, 600, geom.V(3, -2, 1), 5, 4),
			ghost: cloud(r, 200, geom.V(-2, -2, 1), 4, 4)},
		{name: "clump", radius: 2, own: cloud(r, 260, geom.V(-1, 7, 3), 1.5, 5),
			ghost: cloud(r, 120, geom.V(-1, 7, 3), 2, 5)},
		{name: "lattice", radius: 0.5, own: lattice, ghost: lattice[:30]},
		{name: "coincident", radius: 1, own: coincident, ghost: coincident[2:4]},
		{name: "pushed-across-a-cell", radius: 1, own: pushed},
		{name: "ghosts-far-away", radius: 1, own: cloud(r, 200, geom.V(0, 0, 0), 3, 3),
			ghost: cloud(r, 50, geom.V(80, 80, 80), 3, 3)},
		{name: "many-ghosts", radius: 1, own: cloud(r, 50, geom.V(0, 0, 0), 2, 3),
			ghost: cloud(r, 900, geom.V(0, 0, 0), 4, 3)},
		{name: "huge-coordinates", radius: 1, own: huge, ghost: huge[35:]},
	}
}

// The columnar kernels against the record oracle: same positions, same
// velocities, same work, and every other column untouched, across
// repeated frames on one retained scratch.
func TestCollideMatchesReference(t *testing.T) {
	for _, tc := range collideCases() {
		t.Run(tc.name, func(t *testing.T) {
			a := &CollideParticles{Radius: tc.radius, Elasticity: 0.8}
			st := storeWith(tc.own...)
			want := st.All()
			var ghosts particle.Batch
			ghosts.AppendSlice(tc.ghost)
			var sc StoreScratch
			for frame := 0; frame < 3; frame++ {
				wantWork := referenceCollide(a, want, tc.ghost)
				if work := a.ApplyWithGhosts(ctx(), &sc, st, &ghosts); work != wantWork {
					t.Fatalf("frame %d: work %v, want %v", frame, work, wantWork)
				}
				sameBits(t, "collide", st.All(), want)
			}
			// No ghosts, nil or empty, is ApplyStore.
			wantWork := referenceCollide(a, want, nil)
			if work := a.ApplyWithGhosts(ctx(), &sc, st, &particle.Batch{}); work != wantWork {
				t.Fatalf("empty ghosts: work %v, want %v", work, wantWork)
			}
			wantWork = referenceCollide(a, want, nil)
			if work := a.ApplyStore(ctx(), &sc, st); work != wantWork {
				t.Fatalf("no ghosts: work %v, want %v", work, wantWork)
			}
			sameBits(t, "collide without ghosts", st.All(), want)
		})
	}
}

func TestMatchVelocityMatchesReference(t *testing.T) {
	for _, tc := range collideCases() {
		t.Run(tc.name, func(t *testing.T) {
			a := &MatchVelocity{Radius: tc.radius, Strength: 3}
			st := storeWith(tc.own...)
			want := st.All()
			var sc StoreScratch
			for frame := 0; frame < 2; frame++ {
				wantWork := referenceMatchVelocity(a, ctx(), want)
				if work := a.ApplyStore(ctx(), &sc, st); work != wantWork {
					t.Fatalf("frame %d: work %v, want %v", frame, work, wantWork)
				}
				sameBits(t, "match-velocity", st.All(), want)
			}
		})
	}
}

// The oracle cases must exercise what they are named for: a sweep that
// resolves pairs, one that moves a particle out of the cell it was filed
// under, and a cell holding more than fifty particles.
func TestCollideCasesCoverTheHardPaths(t *testing.T) {
	for _, tc := range collideCases() {
		a := &CollideParticles{Radius: tc.radius, Elasticity: 0.8}
		before := append([]particle.Particle(nil), tc.own...)
		after := append([]particle.Particle(nil), tc.own...)
		referenceCollide(a, after, nil)
		crossed, perCell := 0, map[[3]int]int{}
		for i := range before {
			k := gridIndex(before[i].Pos, tc.radius)
			perCell[k]++
			if k != gridIndex(after[i].Pos, tc.radius) {
				crossed++
			}
		}
		densest := 0
		for _, n := range perCell {
			densest = max(densest, n)
		}
		switch tc.name {
		case "pushed-across-a-cell", "mixed":
			if crossed == 0 {
				t.Errorf("%s: no particle left its cell", tc.name)
			}
		case "clump":
			if densest <= 50 {
				t.Errorf("clump: densest cell holds %d particles, want > 50", densest)
			}
		}
	}
}

// Store-order indexing: the kernel's index i is the i-th particle of
// the store, bins ascending, whatever order the particles arrived in,
// and its results land back in the very slots they were read from — no
// re-binning, even for a particle pushed across a bin edge.
func TestCollideMultiBinStoreOrder(t *testing.T) {
	r := geom.NewRNG(5)
	ps := cloud(r, 400, geom.V(0, 0, 0), 6, 4)
	// Descending x: insertion order is the reverse of bin order.
	for i := range ps {
		ps[i].Pos.X = 6 - 12*float64(i)/float64(len(ps))
	}
	st := particle.NewColumnStore(geom.AxisX, -6, 6, 5)
	addAll(st, ps)
	counts := st.BinCounts()
	for _, n := range counts {
		if n == 0 {
			t.Fatalf("bin counts %v: want every bin occupied", counts)
		}
	}
	want := st.All()
	if want[0].Rand == ps[0].Rand {
		t.Fatal("store order equals insertion order; the case pins nothing")
	}
	a := &CollideParticles{Radius: 1.5, Elasticity: 0.9}
	var sc StoreScratch
	for frame := 0; frame < 2; frame++ { // the second frame reuses the scratch
		wantWork := referenceCollide(a, want, nil)
		if work := a.ApplyStore(ctx(), &sc, st); work != wantWork {
			t.Fatalf("frame %d: work %v, want %v", frame, work, wantWork)
		}
		sameBits(t, "multi-bin collide", st.All(), want)
		for bi, n := range st.BinCounts() {
			if n != counts[bi] {
				t.Fatalf("frame %d: bin %d holds %d particles, was %d: the action re-binned", frame, bi, n, counts[bi])
			}
		}
	}
}

// A warmed store action on an unchanged population allocates nothing:
// the grids, the flat columns and MatchVelocity's first-pass results are
// all retained scratch.
func TestStoreActionsDoNotAllocateWhenWarm(t *testing.T) {
	r := geom.NewRNG(11)
	var ghosts particle.Batch
	ghosts.AppendSlice(cloud(r, 300, geom.V(4, 0, 0), 3, 2))
	c := ctx()
	for _, tc := range []struct {
		name string
		run  func(sc *StoreScratch, st *particle.ColumnStore)
	}{
		{"collide", func(sc *StoreScratch, st *particle.ColumnStore) {
			(&CollideParticles{Radius: 1, Elasticity: 0.8}).ApplyWithGhosts(c, sc, st, &ghosts)
		}},
		{"match-velocity", func(sc *StoreScratch, st *particle.ColumnStore) {
			(&MatchVelocity{Radius: 1, Strength: 2}).ApplyStore(c, sc, st)
		}},
	} {
		st := storeWith(cloud(r, 2000, geom.V(0, 0, 0), 6, 2)...)
		var sc StoreScratch
		tc.run(&sc, st)
		if allocs := testing.AllocsPerRun(20, func() { tc.run(&sc, st) }); allocs != 0 {
			t.Errorf("%s: %v allocations per warmed call, want 0", tc.name, allocs)
		}
	}
}
