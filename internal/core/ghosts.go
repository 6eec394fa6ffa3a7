package core

import (
	"pscluster/internal/actions"
	"pscluster/internal/domain"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// This file implements the collision-time neighbor exchange of §3.1.4:
// "depending on the collision detection mechanisms chosen by the user,
// the particles that change domains may be exchanged between processes
// during the computation and validation of their new position". Each
// calculator ships its boundary band — the particles within the
// interaction radius of a domain edge — to the adjacent calculator as
// read-only ghosts, so cross-boundary pairs are detected without any
// global communication.

// applyStoreAction runs one inter-particle action for system si,
// performing the ghost-band exchange first when the scenario enables it
// and the action supports ghosts.
func (c *calcProc) applyStoreAction(si int, act actions.StoreAction,
	ctx *actions.Context) (float64, error) {
	st := c.stores[si]
	col, ok := act.(*actions.CollideParticles)
	if !c.scn.GhostCollisions || !ok {
		var w float64
		st.WithParticles(func(ps []particle.Particle) { w = act.ApplyStore(ctx, ps) })
		return w, nil
	}
	ghosts, err := c.exchangeGhostBand(si, col.Radius)
	if err != nil {
		return 0, err
	}
	var w float64
	st.WithParticles(func(ps []particle.Particle) { w = col.ApplyWithGhosts(ctx, ps, ghosts) })
	return w, nil
}

// exchangeGhostBand trades boundary bands with the decomposition's
// neighbors and returns the received ghosts, in ascending neighbor-rank
// order (determinism). All calculators reach this point in the same
// (frame, system, action) position, so the protocol needs no further
// coordination. The slab path keeps its historical two-sided scan over
// the store interval verbatim (the store bounds — not the table edges —
// define the band for collapsed domains); other decompositions ask the
// strategy for one band region per neighbor.
func (c *calcProc) exchangeGhostBand(si int, radius float64) ([]particle.Particle, error) {
	if _, ok := c.decomps[si].(*domain.Table); !ok {
		return c.exchangeGhostBandMulti(si, radius)
	}
	return c.exchangeGhostBandSlab(si, radius)
}

// exchangeGhostBandMulti is the general per-neighbor band exchange:
// collect each neighbor's band, send every band, then receive every
// neighbor's, all in ascending rank order.
func (c *calcProc) exchangeGhostBandMulti(si int, radius float64) ([]particle.Particle, error) {
	d := c.decomps[si]
	st := c.stores[si]
	neighbors := d.NeighborsOf(c.idx)
	bands := make([][]particle.Particle, len(neighbors))
	for ni, n := range neighbors {
		band := d.NeighborBand(c.idx, n, radius)
		var ps []particle.Particle
		for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
			b := st.Bin(bi)
			for i, pos := range b.Pos {
				if band.Contains(pos) {
					ps = append(ps, b.At(i))
				}
			}
		}
		bands[ni] = ps
	}
	for ni, n := range neighbors {
		c.ep.SendScaled(rankCalc0+n, transport.TagGhosts,
			particle.EncodeBatch(bands[ni]), c.scn.Ratio)
	}
	var ghosts []particle.Particle
	for _, n := range neighbors {
		msg := c.ep.Recv(rankCalc0+n, transport.TagGhosts)
		ps, err := particle.DecodeBatch(msg.Payload)
		if err != nil {
			return nil, err
		}
		ghosts = append(ghosts, ps...)
		msg.Release()
	}
	return ghosts, nil
}

//pslint:hotpath
func (c *calcProc) exchangeGhostBandSlab(si int, radius float64) ([]particle.Particle, error) {
	st := c.stores[si]
	lo, hi := st.Bounds()
	axis := c.scn.Axis
	// Two walks over the position column: size the bands, then
	// materialize only their members, in store order.
	var nLow, nHigh int
	for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
		for _, pos := range st.Bin(bi).Pos {
			x := pos.Component(axis)
			if x < lo+radius {
				nLow++
			}
			if x >= hi-radius {
				nHigh++
			}
		}
	}
	low := make([]particle.Particle, 0, nLow)
	high := make([]particle.Particle, 0, nHigh)
	for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
		b := st.Bin(bi)
		for i := range b.Pos {
			x := b.Pos[i].Component(axis)
			if x < lo+radius {
				low = append(low, b.At(i))
			}
			if x >= hi-radius {
				high = append(high, b.At(i))
			}
		}
	}
	hasLeft := c.idx > 0
	hasRight := c.idx < c.nCalc-1
	if hasLeft {
		c.ep.SendScaled(rankCalc0+c.idx-1, transport.TagGhosts,
			particle.EncodeBatch(low), c.scn.Ratio)
	}
	if hasRight {
		c.ep.SendScaled(rankCalc0+c.idx+1, transport.TagGhosts,
			particle.EncodeBatch(high), c.scn.Ratio)
	}
	var ghosts []particle.Particle
	if hasLeft {
		msg := c.ep.Recv(rankCalc0+c.idx-1, transport.TagGhosts)
		ps, err := particle.DecodeBatch(msg.Payload)
		if err != nil {
			return nil, err
		}
		ghosts = append(ghosts, ps...)
		msg.Release()
	}
	if hasRight {
		msg := c.ep.Recv(rankCalc0+c.idx+1, transport.TagGhosts)
		ps, err := particle.DecodeBatch(msg.Payload)
		if err != nil {
			return nil, err
		}
		ghosts = append(ghosts, ps...)
		msg.Release()
	}
	return ghosts, nil
}
