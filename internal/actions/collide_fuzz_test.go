package actions

import (
	"math"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// fuzzSpecials are the coordinates the cell keys are hardest on: no int
// at all, the ends of int, and the two zeros.
var fuzzSpecials = [...]float64{
	1e300, -1e300, 9.3e18, -9.3e18, 0x1p63, -0x1p63, math.NaN(), math.Copysign(0, -1), 0,
}

// fuzzCloud decodes a store-action input from fuzz bytes: a radius of
// 0.5, 1 or 2, up to 300 own particles and 100 ghosts. Each particle is
// an exact copy of an earlier one (own or ghost) or has coordinates
// that are on the sixteenth-grid of a small box, fine-grained, or
// special; the bytes are read round and round.
func fuzzCloud(data []byte) (radius float64, own, ghost []particle.Particle) {
	at := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[at%len(data)]
		at++
		return b
	}
	radius = [...]float64{0.5, 1, 2}[next()%3]
	nOwn := (int(next())<<8 | int(next())) % 301
	nGhost := int(next()) % 101
	coord := func() float64 {
		switch c := next(); c % 8 {
		case 0, 1, 2, 3:
			return float64(int8(next())) / 16
		case 4:
			return fuzzSpecials[int(next())%len(fuzzSpecials)]
		default:
			return float64(int16(uint16(next())<<8|uint16(next()))) / 2048
		}
	}
	all := make([]particle.Particle, nOwn+nGhost)
	for i := range all {
		if b := next(); b%8 == 7 && i > 0 {
			all[i] = all[int(next())%i]
		} else {
			all[i].Pos = geom.V(coord(), coord(), coord())
			all[i].Vel = geom.V(float64(int8(next()))/8, float64(int8(next()))/8, float64(int8(next()))/8)
		}
		all[i].Rand = uint64(i)
	}
	return radius, all[:nOwn], all[nOwn:]
}

// The store actions against the record oracles on clouds the fuzzer
// shapes: collide, then match velocities, for two frames on one retained
// scratch, positions, velocities and work bit for bit.
func FuzzCollideMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 200, 60, 0, 5, 250, 1, 7, 3, 2, 9, 11, 6, 200, 17, 8, 1})
	f.Add([]byte{2, 1, 44, 100, 4, 0, 4, 6, 4, 3, 15, 4, 2, 7, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		radius, own, ghost := fuzzCloud(data)
		col := &CollideParticles{Radius: radius, Elasticity: 0.8}
		mv := &MatchVelocity{Radius: radius, Strength: 3}
		st := storeWith(own...)
		want := st.All()
		var ghosts particle.Batch
		ghosts.AppendSlice(ghost)
		var sc StoreScratch
		for frame := 0; frame < 2; frame++ {
			wantWork := referenceCollide(col, want, ghost)
			if work := col.ApplyWithGhosts(ctx(), &sc, st, &ghosts); work != wantWork {
				t.Fatalf("frame %d: collide work %v, want %v", frame, work, wantWork)
			}
			sameBits(t, "collide", st.All(), want)
			wantWork = referenceMatchVelocity(mv, ctx(), want)
			if work := mv.ApplyStore(ctx(), &sc, st); work != wantWork {
				t.Fatalf("frame %d: match-velocity work %v, want %v", frame, work, wantWork)
			}
			sameBits(t, "match-velocity", st.All(), want)
		}
	})
}
