package core

import (
	"strings"
	"testing"

	"pscluster/internal/loadbalance"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// A well-formed edge table of the wrong size — two monotonic edges on a
// three-calculator run — used to get past decodeEdges and FromEdges and
// panic calculators 1 and 2 in Bounds(idx). The compiled new-dims step
// must return an error instead. The test plays the manager over a
// virtual router: a valid no-op order, then the short table.
func TestNewDimsRejectsWrongSizeEdgeTable(t *testing.T) {
	const nCalc, idx = 3, 1
	for _, sched := range []Schedule{PerSystemSchedule, BatchedSchedule} {
		t.Run(sched.String(), func(t *testing.T) {
			scn := miniSnow(DynamicLB, FiniteSpace)
			scn.Schedule = sched
			if err := scn.Validate(); err != nil {
				t.Fatal(err)
			}
			nSys := len(scn.Systems)
			cl := testCluster(nCalc)
			place, err := cl.Place(nCalc)
			if err != nil {
				t.Fatal(err)
			}
			router := transport.NewRouter(place, cl.Net)
			c, err := newCalcProc(&scn, place, nCalc, idx, router.Endpoint(rankCalc0+idx))
			if err != nil {
				t.Fatal(err)
			}
			c.fs.orders = make([]*loadbalance.Order, nSys)
			c.fs.donations = make([]*particle.Batch, nSys)

			g := sched.groups(nSys)[0]
			var newDims *step
			steps := dynamicLB{}.calcBalanceSteps(c, g)
			for i := range steps {
				if steps[i].phase == "new-dims" {
					newDims = &steps[i]
				}
			}
			if newDims == nil {
				t.Fatal("no new-dims step compiled")
			}

			short := make([][]float64, g.n())
			for i := range short {
				short[i] = []float64{-60, 60}
			}
			mgr := router.Endpoint(rankManager)
			mgr.Send(rankCalc0+idx, transport.TagLBOrder, encodeMultiOrders(make([]*loadbalance.Order, g.n())))
			mgr.Send(rankCalc0+idx, transport.TagNewDims, encodeMultiEdges(short))

			_, err = newDims.run()
			if err == nil || !strings.Contains(err.Error(), "edge tables") {
				t.Fatalf("short edge table: got error %v, want an edge-table size error", err)
			}
		})
	}
}
