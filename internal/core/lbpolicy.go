package core

import (
	"fmt"

	"pscluster/internal/domain"
	"pscluster/internal/loadbalance"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// This file holds the LBPolicy strategies: which load-balancing steps
// each LBMode contributes to a system group's pass through the frame
// program (schedule.go). StaticLB contributes nothing; DynamicLB adds
// the paper's centralized report → evaluate → new-dims → transfer round
// (§3.2.4–§3.2.5); DecentralizedLB adds the manager-free
// neighbor-trading variant of the paper's future work. Every policy is
// written once, over the group: a single-system group runs one
// system's round between that system's phases, a framed group one
// combined round for all its systems (§3.3) — the reports, orders and
// edge tables of n systems are fixed-width sequences that degenerate
// to the single record at n = 1.

// lbPolicy contributes a group's balancing steps to the compiled frame.
// Hooks may return nil when the policy has nothing to do at that point.
type lbPolicy interface {
	managerSteps(m *managerProc, g sysGroup) []step  // after creation
	calcReportSteps(c *calcProc, g sysGroup) []step  // between exchange and render-send
	calcBalanceSteps(c *calcProc, g sysGroup) []step // after render-send
}

// policy returns the strategy implementing this balancing mode.
func (m LBMode) policy() lbPolicy {
	switch m {
	case DynamicLB:
		return dynamicLB{}
	case DecentralizedLB:
		return decentralLB{}
	default:
		return staticLB{}
	}
}

// lbPolicy resolves the scenario's balancing strategy. The paper's
// donation protocol (dynamicLB) and the decentralized variant are
// defined on slab boundaries — donors sort along the split axis and
// boundaries are single edges — so non-slab decompositions route
// DynamicLB to the geometry-rebalancing policy (rebalance.go) instead.
// Slab scenarios take the LBMode policies untouched, keeping the
// default bit-identical to the pre-strategy engine.
func (s *Scenario) lbPolicy() lbPolicy {
	if s.Decomp != DecompSlab && s.LB == DynamicLB {
		return rebalanceLB{}
	}
	return s.LB.policy()
}

// noSteps is the do-nothing base: policies embed it and override only
// the hooks they participate in.
type noSteps struct{}

func (noSteps) managerSteps(*managerProc, sysGroup) []step  { return nil }
func (noSteps) calcReportSteps(*calcProc, sysGroup) []step  { return nil }
func (noSteps) calcBalanceSteps(*calcProc, sysGroup) []step { return nil }

// staticLB is the SLB mode: equal domains, no balancing traffic.
type staticLB struct{ noSteps }

// ---------------------------------------------------------------------
// Centralized dynamic balancing (DLB)
// ---------------------------------------------------------------------

type dynamicLB struct{}

// gatherReports receives every calculator's load reports for the
// group's systems into the manager's [system][calculator] table,
// accumulates the frame's imbalance record and charges the evaluation.
func (m *managerProc) gatherReports(g sysGroup) error {
	for ci, msg := range m.ep.RecvFromEach(m.calcRanks, transport.TagLoadReport) {
		rs, err := decodeMultiReports(m.reportScratch, msg.Payload, g.n())
		if err != nil {
			return err
		}
		m.reportScratch = rs
		for i, r := range rs {
			m.reports[g.lo+i][ci] = r
			m.addFrameLoad(ci, float64(r.Load))
		}
	}
	m.ep.Clock().AdvanceWork(evalWorkPerCalc*float64(m.nCalc*g.n()), m.rate)
	return nil
}

func (dynamicLB) managerSteps(m *managerProc, g sysGroup) []step {
	// Every calculator gets one message with its order (or a no-op) for
	// each system of the group.
	sendOrders := func() {
		for c := 0; c < m.nCalc; c++ {
			clear(m.calcOrders[c][:g.n()])
		}
		for si := g.lo; si < g.hi; si++ {
			orders := m.fs.orders[si]
			for i := range orders {
				m.calcOrders[orders[i].Proc][si-g.lo] = &orders[i]
			}
		}
		for c := 0; c < m.nCalc; c++ {
			m.ep.Send(rankCalc0+c, transport.TagLBOrder, encodeMultiOrders(m.calcOrders[c][:g.n()]))
		}
	}
	return []step{
		// Load balancing evaluation (§3.2.5): one balancing pass per
		// system.
		g.step("lb-evaluation", always(func() error {
			if err := m.gatherReports(g); err != nil {
				return err
			}
			for si := g.lo; si < g.hi; si++ {
				m.fs.orders[si] = m.balancers[si].Evaluate(m.reports[si], m.power)
				if len(m.fs.orders[si]) > 0 {
					m.lbRounds++
				}
			}
			// Seam 4 (spans only): a framed group's orders leave at the
			// end of the evaluation, an unframed group's at the head of
			// the broadcast.
			if g.framed {
				sendOrders()
			}
			return nil
		})),
		// Collect the donors' new dimensions — in (system, order)
		// sequence; donors emit them in the same order, so the matching
		// is deterministic — and update the authoritative tables (§3.2.5:
		// "the calculator processes send the new values to the manager,
		// which will update its local information and send the
		// dimensions back to all the calculators").
		g.step("dims-broadcast", always(func() error {
			if !g.framed {
				sendOrders() // seam 4
			}
			for si := g.lo; si < g.hi; si++ {
				for _, o := range m.fs.orders[si] {
					if o.Op != loadbalance.Send {
						continue
					}
					msg := m.ep.Recv(rankCalc0+o.Proc, transport.TagNewDims)
					sys, edge, val, err := g.decodeBoundary(msg.Payload)
					if err != nil {
						return err
					}
					if sys != si {
						return fmt.Errorf("core: donor %d sent boundary for system %d, expected %d",
							o.Proc, sys, si)
					}
					if err := m.slab(si).SetBoundary(edge, val); err != nil {
						return err
					}
					m.lbMovedStored += o.Count
				}
			}
			tables := m.edgeTables[:0]
			for si := g.lo; si < g.hi; si++ {
				tables = append(tables, m.slab(si).Edges())
			}
			m.edgeTables = tables
			// Sends consume buffer ownership: encode per destination.
			for c := 0; c < m.nCalc; c++ {
				m.ep.Send(rankCalc0+c, transport.TagNewDims, encodeMultiEdges(tables))
			}
			return nil
		})),
	}
}

func (dynamicLB) calcReportSteps(c *calcProc, g sysGroup) []step {
	// Load information (§3.2.4): the measured time, rescaled to the
	// post-exchange particle count, for every system of the group.
	return []step{g.step("load-information", always(func() error {
		reports := c.reports[:0]
		for si := g.lo; si < g.hi; si++ {
			reports = append(reports, c.frameReport(si))
		}
		c.reports = reports
		c.ep.Send(rankManager, transport.TagLoadReport, encodeMultiReports(reports))
		return nil
	}))}
}

func (dynamicLB) calcBalanceSteps(c *calcProc, g sysGroup) []step {
	return []step{
		// Donors select the particles nearest the departing edge and
		// derive the new boundary before anything moves, in system order;
		// then everyone installs the new dimensions ("only after
		// receiving the new domains the calculators effectively start the
		// donation and reception of particles", §3.2.5).
		g.step("new-dims", always(func() error {
			msg := c.ep.Recv(rankManager, transport.TagLBOrder)
			// Decoded in place: the group's window of the per-system table.
			orders, err := decodeMultiOrders(c.fs.orders[g.lo:g.hi], msg.Payload, g.n())
			if err != nil {
				return err
			}
			for i, o := range orders {
				si := g.lo + i
				if o == nil || o.Op != loadbalance.Send {
					continue
				}
				side, edge := donationSide(c.idx, o.Peer)
				var boundary float64
				c.fs.donations[si], boundary = c.stores[si].DonateBatch(o.Count, side)
				c.ep.Send(rankManager, transport.TagNewDims, g.encodeBoundary(si, edge, boundary))
			}
			dimsMsg := c.ep.Recv(rankManager, transport.TagNewDims)
			tables, err := decodeMultiEdges(c.edgeTables, dimsMsg.Payload, g.n(), c.nCalc+1)
			if err != nil {
				return err
			}
			c.edgeTables = tables
			for i, edges := range tables {
				table, err := domain.FromEdges(c.scn.Axis, edges)
				if err != nil {
					return err
				}
				c.decomps[g.lo+i] = table
				lo, hi := table.Bounds(c.idx)
				c.stores[g.lo+i].Resize(lo, hi)
			}
			return nil
		})),
		// The transfers, in system order.
		g.step("load-balance", func() (bool, error) {
			// Seam 5 (spans only): an idle calculator skips the phase only
			// when the group is unframed.
			emit := g.framed
			for si := g.lo; si < g.hi; si++ {
				o := c.fs.orders[si]
				if o == nil {
					continue
				}
				emit = true
				peerRank := rankCalc0 + o.Peer
				if o.Op == loadbalance.Send {
					c.ep.SendScaled(peerRank, transport.TagLBParticles,
						c.fs.donations[si].EncodeWire(), c.scn.Ratio)
					continue
				}
				msg := c.ep.Recv(peerRank, transport.TagLBParticles)
				if err := c.addWire(si, msg.Payload); err != nil {
					return false, err
				}
				msg.Release()
			}
			return emit, nil
		}),
	}
}

// frameReport builds one system's load report from the frame's
// accumulated work: the measured time rescaled to the post-exchange
// particle count (§3.2.4), or a model estimate when the system was
// empty before the exchange.
func (c *calcProc) frameReport(si int) loadbalance.Report {
	scn := c.scn
	newLoad := c.stores[si].Len()
	t := c.fs.work[si] / c.rate
	var rescaled float64
	if c.fs.oldLoad[si] > 0 {
		rescaled = t * float64(newLoad) / float64(c.fs.oldLoad[si])
	} else {
		perParticle := scn.Systems[si].perParticleWork() + scn.ExchangeScanWork
		rescaled = float64(newLoad) * perParticle * scn.Ratio / c.rate
	}
	return loadbalance.Report{Load: newLoad, Time: rescaled}
}

// donationSide returns the store side a donor gives particles from and
// the table edge it moves when sending to peer: the high side and
// right edge toward a higher-indexed peer, the low side and left edge
// otherwise.
func donationSide(idx, peer int) (particle.Side, int) {
	if peer < idx {
		return particle.LowSide, idx
	}
	return particle.HighSide, idx + 1
}

// ---------------------------------------------------------------------
// Decentralized balancing (the paper's future work)
// ---------------------------------------------------------------------

type decentralLB struct{ noSteps }

func (decentralLB) calcBalanceSteps(c *calcProc, g sysGroup) []step {
	return []step{g.step("decentralized-lb", always(func() error {
		for si := g.lo; si < g.hi; si++ {
			if err := c.executeDecentralized(c.fs.frame, si, c.frameReport(si)); err != nil {
				return err
			}
		}
		return nil
	}))}
}

// executeDecentralized performs one round of the manager-free balancing
// variant (the paper's future work): each calculator trades load
// reports with its immediate neighbors and both members of the active
// pair apply loadbalance.DecidePair symmetrically. Pairs (x, x+1) with
// x ≡ frame (mod 2) are active, which alternates the pairing each frame
// and guarantees a process never both sends and receives.
func (c *calcProc) executeDecentralized(frame, si int, rep loadbalance.Report) error {
	hasLeft := c.idx > 0
	hasRight := c.idx < c.nCalc-1
	// Sends consume buffer ownership: encode once per neighbor.
	if hasLeft {
		c.ep.Send(rankCalc0+c.idx-1, transport.TagLoadReport, encodeLoadReport(rep))
	}
	if hasRight {
		c.ep.Send(rankCalc0+c.idx+1, transport.TagLoadReport, encodeLoadReport(rep))
	}
	var left, right loadbalance.Report
	if hasLeft {
		m := c.ep.Recv(rankCalc0+c.idx-1, transport.TagLoadReport)
		r, err := decodeLoadReport(m.Payload)
		if err != nil {
			return err
		}
		left = r
	}
	if hasRight {
		m := c.ep.Recv(rankCalc0+c.idx+1, transport.TagLoadReport)
		r, err := decodeLoadReport(m.Payload)
		if err != nil {
			return err
		}
		right = r
	}

	parity := frame % 2
	switch {
	case hasRight && c.idx%2 == parity:
		// Left member of the active pair (c.idx, c.idx+1).
		move := loadbalance.DecidePair(rep, right,
			c.power[c.idx], c.power[c.idx+1], c.scn.LBThreshold, c.scn.LBMinBatch)
		return c.tradeWithNeighbor(si, c.idx+1, move)
	case hasLeft && (c.idx-1)%2 == parity:
		// Right member of the active pair (c.idx-1, c.idx): the same
		// decision, seen from the other side.
		move := loadbalance.DecidePair(left, rep,
			c.power[c.idx-1], c.power[c.idx], c.scn.LBThreshold, c.scn.LBMinBatch)
		return c.tradeWithNeighbor(si, c.idx-1, -move)
	}
	return nil
}

// tradeWithNeighbor executes this side of a decentralized pair
// decision: move > 0 means this calculator donates move particles to
// peer; move < 0 means it receives -move from peer.
func (c *calcProc) tradeWithNeighbor(si, peer, move int) error {
	if move == 0 {
		return nil
	}
	st := c.stores[si]
	peerRank := rankCalc0 + peer
	if move > 0 {
		side, edge := donationSide(c.idx, peer)
		donated, boundary := st.DonateBatch(move, side)
		c.lbMovedStored += donated.Len()
		if err := c.slab(si).SetBoundary(edge, boundary); err != nil {
			return err
		}
		c.ep.Send(peerRank, transport.TagNewDims, encodeBoundary(edge, boundary))
		c.ep.SendScaled(peerRank, transport.TagLBParticles,
			donated.EncodeWire(), c.scn.Ratio)
		return nil
	}
	// Receiving side: install the shared boundary first, then take the
	// particles.
	m := c.ep.Recv(peerRank, transport.TagNewDims)
	edge, boundary, err := decodeBoundary(m.Payload)
	if err != nil {
		return err
	}
	if err := c.slab(si).SetBoundary(edge, boundary); err != nil {
		return err
	}
	lo, hi := c.slab(si).Bounds(c.idx)
	st.Resize(lo, hi)
	pm := c.ep.Recv(peerRank, transport.TagLBParticles)
	if err := c.addWire(si, pm.Payload); err != nil {
		return err
	}
	pm.Release()
	return nil
}
