package geom

import "math"

// An EmitDomain is a region of space with a probability distribution over
// it: the "pDomain" abstraction of the McAllister Particle System API
// that the validated library was built from. Source actions draw initial
// particle positions and velocities from EmitDomains.
type EmitDomain interface {
	// Generate draws a point from the domain's distribution.
	Generate(r *RNG) Vec3
	// Within reports whether p lies inside the domain (used by sinks,
	// which kill or keep particles relative to a domain).
	Within(p Vec3) bool
	// Bounds returns an AABB enclosing the domain. The model uses it to
	// compute the extent of a finite simulated space that tightly fits
	// the particle systems (paper §5.1, "FS").
	Bounds() AABB
}

// PointDomain is a single point.
type PointDomain struct{ P Vec3 }

// Generate returns the point itself.
func (d PointDomain) Generate(_ *RNG) Vec3 { return d.P }

// Within reports whether p coincides with the point.
func (d PointDomain) Within(p Vec3) bool { return p == d.P }

// Bounds returns a degenerate box at the point.
func (d PointDomain) Bounds() AABB { return AABB{Min: d.P, Max: d.P} }

// LineDomain is the segment from A to B, uniform along its length.
type LineDomain struct{ A, B Vec3 }

// Generate draws a uniform point on the segment.
func (d LineDomain) Generate(r *RNG) Vec3 { return d.A.Lerp(d.B, r.Float64()) }

// Within reports whether p lies on the segment (within a small tolerance).
func (d LineDomain) Within(p Vec3) bool {
	ab := d.B.Sub(d.A)
	l2 := ab.Len2()
	if l2 == 0 {
		return p.Dist(d.A) < 1e-9
	}
	t := p.Sub(d.A).Dot(ab) / l2
	if t < 0 || t > 1 {
		return false
	}
	return p.Dist(d.A.Add(ab.Scale(t))) < 1e-9
}

// Bounds returns the box spanning the segment endpoints.
func (d LineDomain) Bounds() AABB { return Box(d.A, d.B) }

// BoxDomain is a solid axis-aligned box, uniform over its volume.
type BoxDomain struct{ B AABB }

// Generate draws a uniform point in the box.
func (d BoxDomain) Generate(r *RNG) Vec3 { return r.InBox(d.B) }

// Within reports whether p lies inside the box.
func (d BoxDomain) Within(p Vec3) bool { return d.B.Contains(p) }

// Bounds returns the box.
func (d BoxDomain) Bounds() AABB { return d.B }

// SphereDomain is a spherical shell between InnerR and OuterR around a
// center, uniform over the shell volume.
type SphereDomain struct {
	Center         Vec3
	InnerR, OuterR float64
}

// Generate draws a uniform point in the shell.
func (d SphereDomain) Generate(r *RNG) Vec3 {
	cube, z, t := d.draw(r)
	return d.place(math.Cbrt(cube), z, t)
}

// GenerateStates draws one point per saved stream: pts[i] is the point
// Generate draws from NewRNG(states[i]), and states[i] is left where
// that stream ends. pts must be at least as long as states.
//
// It runs in three passes over the chunk — the draws, the cube roots,
// the placement — so that the independent cube roots overlap in the
// pipeline instead of each waiting for its own chain of divisions. pts
// holds the draws between passes; keep a chunk small enough to stay in
// L1.
func (d SphereDomain) GenerateStates(states []uint64, pts []Vec3) {
	pts = pts[:len(states)]
	var r RNG
	for i := range states {
		r.Seed(states[i])
		cube, z, t := d.draw(&r)
		pts[i] = Vec3{cube, z, t}
		states[i] = r.Save()
	}
	for i := range pts {
		pts[i].X = math.Cbrt(pts[i].X)
	}
	for i := range pts {
		pts[i] = d.place(pts[i].X, pts[i].Y, pts[i].Z)
	}
}

// draw makes a point's three draws in order: the radius cubed, uniform
// between the shell's cubes so that the volume is uniform, then the
// direction's height and angle (as UnitVec draws them).
func (d SphereDomain) draw(r *RNG) (cube, z, t float64) {
	lo, hi := d.InnerR*d.InnerR*d.InnerR, d.OuterR*d.OuterR*d.OuterR
	cube = r.Range(lo, hi)
	z, t = r.direction()
	return cube, z, t
}

// place returns the point at radius rad in the direction (z, t).
func (d SphereDomain) place(rad, z, t float64) Vec3 {
	return d.Center.Add(unitVec(z, t).Scale(rad))
}

// Within reports whether p lies inside the shell.
func (d SphereDomain) Within(p Vec3) bool {
	dist := p.Dist(d.Center)
	return dist >= d.InnerR && dist <= d.OuterR
}

// Bounds returns the box enclosing the outer sphere.
func (d SphereDomain) Bounds() AABB {
	e := V(d.OuterR, d.OuterR, d.OuterR)
	return AABB{Min: d.Center.Sub(e), Max: d.Center.Add(e)}
}

// DiscDomain is a flat disc (annulus) with the given normal, uniform over
// its area.
type DiscDomain struct {
	Center         Vec3
	Normal         Vec3
	InnerR, OuterR float64
}

// basis returns two unit vectors orthogonal to the disc normal.
func (d DiscDomain) basis() (Vec3, Vec3) {
	n := d.Normal.Norm()
	ref := V(1, 0, 0)
	if math.Abs(n.X) > 0.9 {
		ref = V(0, 1, 0)
	}
	u := n.Cross(ref).Norm()
	return u, n.Cross(u)
}

// Generate draws a uniform point on the annulus, taking the angle's
// sine and cosine from one sincos as RNG.UnitVec does.
func (d DiscDomain) Generate(r *RNG) Vec3 {
	u, v := d.basis()
	rad := math.Sqrt(r.Range(d.InnerR*d.InnerR, d.OuterR*d.OuterR))
	t := r.Range(0, 2*math.Pi)
	sin, cos := sincos(t)
	return d.Center.Add(u.Scale(rad * cos)).Add(v.Scale(rad * sin))
}

// Within reports whether p lies on the annulus (within a small tolerance
// off-plane).
func (d DiscDomain) Within(p Vec3) bool {
	n := d.Normal.Norm()
	off := p.Sub(d.Center)
	if math.Abs(off.Dot(n)) > 1e-9 {
		return false
	}
	rad := off.Len()
	return rad >= d.InnerR && rad <= d.OuterR
}

// Bounds returns a box enclosing the disc.
func (d DiscDomain) Bounds() AABB {
	e := V(d.OuterR, d.OuterR, d.OuterR)
	return AABB{Min: d.Center.Sub(e), Max: d.Center.Add(e)}
}

// CylinderDomain is a solid cylinder from A to B with the given radius,
// uniform over its volume.
type CylinderDomain struct {
	A, B   Vec3
	Radius float64
}

// Generate draws a uniform point in the cylinder.
func (d CylinderDomain) Generate(r *RNG) Vec3 {
	axis := d.B.Sub(d.A)
	disc := DiscDomain{Center: V(0, 0, 0), Normal: axis, OuterR: d.Radius}
	return d.A.Add(axis.Scale(r.Float64())).Add(disc.Generate(r))
}

// Within reports whether p lies inside the cylinder.
func (d CylinderDomain) Within(p Vec3) bool {
	axis := d.B.Sub(d.A)
	l2 := axis.Len2()
	if l2 == 0 {
		return p.Dist(d.A) <= d.Radius
	}
	t := p.Sub(d.A).Dot(axis) / l2
	if t < 0 || t > 1 {
		return false
	}
	return p.Dist(d.A.Add(axis.Scale(t))) <= d.Radius
}

// Bounds returns a box enclosing the cylinder.
func (d CylinderDomain) Bounds() AABB {
	e := V(d.Radius, d.Radius, d.Radius)
	return Box(d.A, d.B).Union(AABB{Min: d.A.Sub(e), Max: d.A.Add(e)}).
		Union(AABB{Min: d.B.Sub(e), Max: d.B.Add(e)})
}

// ConeDomain is a solid cone with apex at Apex opening toward Base, with
// the given base radius. Fountain nozzles draw initial velocities from
// cones (paper §5.2).
type ConeDomain struct {
	Apex, Base Vec3
	Radius     float64
}

// Generate draws a point in the cone, denser toward the apex (uniform in
// the parameterization, which is what the original API does for velocity
// cones).
func (d ConeDomain) Generate(r *RNG) Vec3 {
	t := r.Float64()
	axis := d.Base.Sub(d.Apex)
	disc := DiscDomain{Normal: axis, OuterR: d.Radius * t}
	return d.Apex.Add(axis.Scale(t)).Add(disc.Generate(r))
}

// Within reports whether p lies inside the cone.
func (d ConeDomain) Within(p Vec3) bool {
	axis := d.Base.Sub(d.Apex)
	l2 := axis.Len2()
	if l2 == 0 {
		return p.Dist(d.Apex) < 1e-9
	}
	t := p.Sub(d.Apex).Dot(axis) / l2
	if t < 0 || t > 1 {
		return false
	}
	return p.Dist(d.Apex.Add(axis.Scale(t))) <= d.Radius*t
}

// Bounds returns a box enclosing the cone.
func (d ConeDomain) Bounds() AABB {
	e := V(d.Radius, d.Radius, d.Radius)
	return Box(d.Apex, d.Base).Union(AABB{Min: d.Base.Sub(e), Max: d.Base.Add(e)})
}

// TriangleDomain is a flat triangle, uniform over its area.
type TriangleDomain struct{ A, B, C Vec3 }

// Generate draws a uniform point on the triangle.
func (d TriangleDomain) Generate(r *RNG) Vec3 {
	u, v := r.Float64(), r.Float64()
	if u+v > 1 {
		u, v = 1-u, 1-v
	}
	return d.A.Add(d.B.Sub(d.A).Scale(u)).Add(d.C.Sub(d.A).Scale(v))
}

// Within reports whether p lies on the triangle (within tolerance
// off-plane).
func (d TriangleDomain) Within(p Vec3) bool {
	n := d.B.Sub(d.A).Cross(d.C.Sub(d.A))
	if n.Len2() == 0 {
		return false
	}
	if math.Abs(p.Sub(d.A).Dot(n.Norm())) > 1e-9 {
		return false
	}
	// Barycentric test.
	v0, v1, v2 := d.C.Sub(d.A), d.B.Sub(d.A), p.Sub(d.A)
	d00, d01, d02 := v0.Dot(v0), v0.Dot(v1), v0.Dot(v2)
	d11, d12 := v1.Dot(v1), v1.Dot(v2)
	inv := 1 / (d00*d11 - d01*d01)
	u := (d11*d02 - d01*d12) * inv
	v := (d00*d12 - d01*d02) * inv
	return u >= -1e-12 && v >= -1e-12 && u+v <= 1+1e-12
}

// Bounds returns the box spanning the triangle vertices.
func (d TriangleDomain) Bounds() AABB {
	return Box(d.A, d.B).Union(Box(d.A, d.C))
}
