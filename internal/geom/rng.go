package geom

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64). Every particle system owns one, seeded from the system
// identifier, so the manager creates identical particle streams no matter
// how many calculator processes participate — the property the model
// relies on to let all processes create the particle systems "in the same
// order" (paper §3.1.3).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Seed resets the generator to the stream NewRNG(seed) starts: the
// allocation-free way for a batch kernel to walk many saved
// per-particle streams through one hoisted RNG value.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Save returns the generator state, which NewRNG and Seed restore exactly. The
// engine threads per-particle streams through this: stochastic actions
// draw from a particle's own saved state, so results are identical no
// matter which process applies the action.
func (r *RNG) Save() uint64 { return r.state }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("geom: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// UnitVec returns a uniformly distributed unit vector.
func (r *RNG) UnitVec() Vec3 { return unitVec(r.direction()) }

// direction draws a unit vector's height z and angle t, in that order.
func (r *RNG) direction() (z, t float64) { return r.Range(-1, 1), r.Range(0, 2*math.Pi) }

// unitVec is the unit vector at height z and angle t around the z axis.
// The angle's sine and cosine come from one sincos: one range reduction
// instead of two, and on amd64 the same bits as math.Sin and math.Cos
// for every angle (DESIGN §2).
func unitVec(z, t float64) Vec3 {
	s := math.Sqrt(1 - z*z)
	sin, cos := sincos(t)
	return Vec3{s * cos, s * sin, z}
}

// InBox returns a uniformly distributed point in box b.
func (r *RNG) InBox(b AABB) Vec3 {
	return Vec3{
		r.Range(b.Min.X, b.Max.X),
		r.Range(b.Min.Y, b.Max.Y),
		r.Range(b.Min.Z, b.Max.Z),
	}
}
