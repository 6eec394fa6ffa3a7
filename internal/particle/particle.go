// Package particle defines the particle record of the model, its binary
// wire format, and the sub-domain binned store the validated library uses
// to accelerate particle exchange and load balancing (paper §4).
package particle

import "pscluster/internal/geom"

// Particle carries the four basic properties the model requires —
// position, orientation, age and velocity (paper §3.1.2) — plus the
// rendering attributes of the McAllister API the validated library was
// rebuilt from. Particles deliberately have no unique identifier: the
// model does not require one as long as particles of different systems
// are stored in different structures (§3.1.2).
type Particle struct {
	Pos   geom.Vec3 // position in space
	Up    geom.Vec3 // orientation
	Vel   geom.Vec3 // velocity
	Color geom.Vec3 // RGB in [0,1]
	Age   float64   // seconds since birth
	Alpha float64   // opacity in [0,1]
	Size  float64   // world-space radius
	Rand  uint64    // private random stream state (see geom.RNG.Save)
	Dead  bool      // marked for removal at the next compaction
}

// WireSize is the encoded size of one particle in bytes. The value is
// calibrated from the paper's measured exchange volumes: 8 processes ×
// ~560 particles ≈ 613 KB (snow) and 8 × ~4000 ≈ 4375 KB (fountain) both
// give ≈140 bytes per particle on the wire.
const WireSize = 140

// BatchBytes returns the encoded size of a batch of n particles.
func BatchBytes(n int) int { return 4 + n*WireSize }
