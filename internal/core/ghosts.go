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
		return act.ApplyStore(ctx, &c.storeScratch, st), nil
	}
	ghosts, err := c.exchangeGhostBand(si, col.Radius)
	if err != nil {
		return 0, err
	}
	return col.ApplyWithGhosts(ctx, &c.storeScratch, st, ghosts), nil
}

// exchangeGhostBand trades boundary bands with the decomposition's
// neighbors and returns the received ghosts, in ascending neighbor-rank
// order (determinism). All calculators reach this point in the same
// (frame, system, action) position, so the protocol needs no further
// coordination. The slab path keeps its historical two-sided scan over
// the store interval (the store bounds — not the table edges — define
// the band for collapsed domains); other decompositions ask the
// strategy for one band region per neighbor. Bands and ghosts are
// calculator-owned batches, refilled in place every exchange.
func (c *calcProc) exchangeGhostBand(si int, radius float64) (*particle.Batch, error) {
	d := c.decomps[si]
	if _, ok := d.(*domain.Table); ok {
		return c.exchangeGhostBandSlab(si, radius)
	}
	st := c.stores[si]
	neighbors := d.NeighborsOf(c.idx)
	bands := c.ghostBands(len(neighbors))
	for ni, n := range neighbors {
		band := d.NeighborBand(c.idx, n, radius)
		for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
			b := st.Bin(bi)
			for i, pos := range b.Pos {
				if band.Contains(pos) {
					bands[ni].AppendIndex(b, i)
				}
			}
		}
	}
	return c.tradeGhostBands(neighbors, bands)
}

func (c *calcProc) exchangeGhostBandSlab(si int, radius float64) (*particle.Batch, error) {
	st := c.stores[si]
	lo, hi := st.Bounds()
	axis := c.scn.Axis
	bands := c.ghostBands(2)
	low, high := &bands[0], &bands[1]
	for bi, nb := 0, st.NumBins(); bi < nb; bi++ {
		b := st.Bin(bi)
		for i := range b.Pos {
			x := b.Pos[i].Component(axis)
			if x < lo+radius {
				low.AppendIndex(b, i)
			}
			if x >= hi-radius {
				high.AppendIndex(b, i)
			}
		}
	}
	// An edge calculator has one neighbor and drops the other band.
	var sides [2]int
	neighbors := sides[:0]
	if c.idx > 0 {
		neighbors = append(neighbors, c.idx-1)
	} else {
		bands = bands[1:]
	}
	if c.idx < c.nCalc-1 {
		neighbors = append(neighbors, c.idx+1)
	} else {
		bands = bands[:len(bands)-1]
	}
	return c.tradeGhostBands(neighbors, bands)
}

// ghostBands returns n empty outgoing bands from the calculator's
// scratch, in store order once filled by AppendIndex.
func (c *calcProc) ghostBands(n int) []particle.Batch {
	for len(c.bands) < n {
		c.bands = append(c.bands, particle.Batch{})
	}
	for i := range c.bands[:n] {
		c.bands[i].Clear()
	}
	return c.bands[:n]
}

// tradeGhostBands sends bands[i] to neighbors[i], all of them, then
// receives every neighbor's band in the same ascending order.
func (c *calcProc) tradeGhostBands(neighbors []int, bands []particle.Batch) (*particle.Batch, error) {
	for ni, n := range neighbors {
		c.ep.SendScaled(rankCalc0+n, transport.TagGhosts, bands[ni].EncodeWire(), c.scn.Ratio)
	}
	c.ghosts.Clear()
	for _, n := range neighbors {
		if err := c.recvGhostsInto(n, &c.ghosts); err != nil {
			return nil, err
		}
	}
	return &c.ghosts, nil
}

// recvGhostsInto receives calculator from's ghost band and appends it
// to dst. The pooled payload is released on every path.
func (c *calcProc) recvGhostsInto(from int, dst *particle.Batch) error {
	msg := c.ep.Recv(rankCalc0+from, transport.TagGhosts)
	err := c.wire.DecodeWireInto(msg.Payload)
	msg.Release()
	if err != nil {
		return err
	}
	dst.AppendBatch(&c.wire)
	return nil
}
