package core

import (
	"fmt"

	"pscluster/internal/domain"
	"pscluster/internal/transport"
)

// rebalanceLB is the balancing policy of the non-slab decompositions
// (grid, Voronoi) under DynamicLB. The paper's donation protocol
// (dynamicLB) is slab-specific — donors sort along the split axis and
// a boundary is a single edge — so these strategies balance by moving
// the partition *geometry* toward the measured load instead:
//
//	report → rebalance geometry → broadcast decomposition → migrate
//
// Calculators send the same load reports as DLB (§3.2.4); the manager
// feeds them to the decomposition's Rebalance (a bounded deterministic
// step, see internal/domain) and broadcasts the updated decomposition
// over the wire codec; every calculator installs it and the ownership
// migration — the same owner-grouped all-to-all shape as the
// end-of-frame exchange — moves exactly the particles whose owner
// changed. No donation sorting, no per-edge negotiation.
type rebalanceLB struct{}

func (rebalanceLB) managerSteps(m *managerProc, g sysGroup) []step {
	return []step{
		// Load evaluation: same reports and evaluation charge as DLB,
		// but the decision is a geometry step, not donation orders.
		g.step("lb-evaluation", always(func() error {
			if err := m.gatherReports(g); err != nil {
				return err
			}
			for si := g.lo; si < g.hi; si++ {
				for ci, r := range m.reports[si] {
					m.loads[ci] = r.Time
				}
				if m.decomps[si].Rebalance(m.loads) {
					m.lbRounds++
				}
			}
			return nil
		})),
		// Broadcast the authoritative decompositions, one self-sizing
		// blob per system. Every calculator gets the full geometry every
		// frame — a few dozen floats, far below one particle batch.
		g.step("dims-broadcast", always(func() error {
			// Sends consume buffer ownership: encode per destination.
			for c := 0; c < m.nCalc; c++ {
				slots := m.calcSlots[c][:0]
				for si := g.lo; si < g.hi; si++ {
					slots = append(slots, domain.Encode(m.decomps[si]))
				}
				m.calcSlots[c] = slots
				m.ep.Send(rankCalc0+c, transport.TagNewDims, g.pack(slots))
			}
			return nil
		})),
	}
}

// calcReportSteps sends the same §3.2.4 load reports as DLB.
func (rebalanceLB) calcReportSteps(c *calcProc, g sysGroup) []step {
	return dynamicLB{}.calcReportSteps(c, g)
}

func (rebalanceLB) calcBalanceSteps(c *calcProc, g sysGroup) []step {
	return []step{
		g.step("new-dims", always(func() error {
			msg := c.ep.Recv(rankManager, transport.TagNewDims)
			slots, err := g.unpack(c.slots, msg.Payload, g.n(), "decomposition broadcast", domain.WireSize)
			if err != nil {
				return err
			}
			c.slots = slots
			for i, s := range slots {
				d, err := domain.Decode(s)
				if err != nil {
					return err
				}
				if d.N() != c.nCalc {
					return fmt.Errorf("core: decomposition broadcast has %d domains, want %d", d.N(), c.nCalc)
				}
				c.decomps[g.lo+i] = d
			}
			// Not released, like dynamicLB's order and dims messages: a
			// missed Put is safe, and control payloads are tiny.
			return nil
		})),
		// Move exactly the particles whose owner changed when the
		// geometry moved: the exchange's all-to-all on the balancing tag.
		g.step("load-balance", always(func() error {
			return c.ownerAllToAll(g, transport.TagLBParticles, &c.lbMovedStored)
		})),
	}
}
