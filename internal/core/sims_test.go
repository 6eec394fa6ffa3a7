package core

import (
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

func TestSimsEquivalentForIndependentParticles(t *testing.T) {
	// With no inter-particle action the baseline's physics is exact:
	// same frames and particles as the sequential engine.
	scn := miniSnow(StaticLB, FiniteSpace)
	seq, err := RunSequential(scn, cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	sims, err := RunSimsBaseline(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, seq, sims)
}

func TestSimsLoadsArePerfectlyBalanced(t *testing.T) {
	// Round-robin dealing balances even the pathological infinite-space
	// workload — the baseline's genuine strength.
	res, err := RunSimsBaseline(miniSnow(StaticLB, InfiniteSpace), testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.CalcLoads[0], res.CalcLoads[0]
	for _, l := range res.CalcLoads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > max/10+2 {
		t.Errorf("sims loads unbalanced: %v", res.CalcLoads)
	}
	if res.ExchangedParticles != 0 {
		t.Error("independent particles should need no ghost traffic")
	}
}

func collisionScenario() Scenario {
	scn := miniSnow(StaticLB, FiniteSpace)
	for i := range scn.Systems {
		acts := scn.Systems[i].Actions
		// Insert collisions before Move.
		withCollide := append([]actions.Action{}, acts[:len(acts)-1]...)
		withCollide = append(withCollide, &actions.CollideParticles{Radius: 1.5, Elasticity: 0.8})
		withCollide = append(withCollide, acts[len(acts)-1])
		scn.Systems[i].Actions = withCollide
	}
	scn.CollectParticles = false
	return scn
}

// Everything the baseline sends is consumed, ghost broadcasts
// included, so its receive totals must equal its send totals.
func TestSimsSendRecvTotalsBalance(t *testing.T) {
	for name, scn := range map[string]Scenario{
		"independent": miniSnow(StaticLB, FiniteSpace),
		"collide":     collisionScenario(),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := RunSimsBaseline(scn, testCluster(4), 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.MsgsSent == 0 {
				t.Fatal("no traffic recorded")
			}
			if res.MsgsRecv != res.MsgsSent {
				t.Errorf("messages: sent %d, received %d", res.MsgsSent, res.MsgsRecv)
			}
			if res.BytesRecv != res.BytesSent {
				t.Errorf("bytes: sent %d, received %d", res.BytesSent, res.BytesRecv)
			}
		})
	}
}

func TestSimsGhostBroadcastDwarfsModelExchange(t *testing.T) {
	// The paper's motivation for domains (§3.1.4): without locality,
	// collision detection forces each process to see every particle.
	scn := collisionScenario()
	model, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	sims, err := RunSimsBaseline(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sims.ExchangedParticles < 5*model.ExchangedParticles {
		t.Errorf("ghost broadcast (%d) should dwarf the model's exchange (%d)",
			sims.ExchangedParticles, model.ExchangedParticles)
	}
	if sims.BytesSent < 2*model.BytesSent {
		t.Errorf("sims bytes %d vs model %d: broadcast should dominate",
			sims.BytesSent, model.BytesSent)
	}
}

func TestSimsSlowerThanModelUnderCollisionsOnSlowNetwork(t *testing.T) {
	// Over a slow network the ghost broadcast dominates the baseline's
	// frame, while the model only ships the few boundary-crossing
	// particles. (Over Myrinet at this scale the broadcast is absorbed —
	// consistent with Sims's design being viable on the CM-2's fast
	// fabric.)
	cl := cluster.New(cluster.FastEthernet, cluster.GCC,
		cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	scn := collisionScenario()
	model, err := RunParallel(scn, cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	sims, err := RunSimsBaseline(scn, cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sims.Time <= model.Time {
		t.Errorf("sims %.4fs should lose to the model %.4fs under collisions on Fast-Ethernet",
			sims.Time, model.Time)
	}
}

func TestSimsRejectsMatchVelocity(t *testing.T) {
	scn := miniSnow(StaticLB, FiniteSpace)
	scn.Systems[0].Actions = append(scn.Systems[0].Actions,
		&actions.MatchVelocity{Radius: 1, Strength: 1})
	if _, err := RunSimsBaseline(scn, testCluster(2), 2); err == nil {
		t.Error("match-velocity accepted by the baseline")
	}
}

func TestSimsDeterministic(t *testing.T) {
	scn := collisionScenario()
	r1, err := RunSimsBaseline(scn, testCluster(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSimsBaseline(scn, testCluster(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("times differ: %v vs %v", r1.Time, r2.Time)
	}
	for f := range r1.FrameChecksums {
		if r1.FrameChecksums[f] != r2.FrameChecksums[f] {
			t.Fatalf("frame %d differs", f)
		}
	}
}

func TestGhostCollisionsConserveMomentumAcrossOwners(t *testing.T) {
	// Two particles heading at each other, owned by different sides of
	// an ApplyWithGhosts split: the combined momentum must be conserved
	// and both sides must agree on the post-impulse velocities.
	a := &actions.CollideParticles{Radius: 1, Elasticity: 1}
	ctx := &actions.Context{RNG: geom.NewRNG(1), DT: 0.1}

	own := particle.Particle{Pos: geom.V(0, 0, 0), Vel: geom.V(1, 0, 0)}
	ghost := particle.Particle{Pos: geom.V(0.5, 0, 0), Vel: geom.V(-1, 0, 0)}

	// Side A holds its particle the way the Sims baseline does, in a
	// one-bin store; side B the way the model's calculators do, in a
	// binned one.
	side := func(bins int, own, ghost particle.Particle) particle.Particle {
		st := particle.NewColumnStore(geom.AxisX, -10, 10, bins)
		st.Add(own)
		var ghosts particle.Batch
		ghosts.Append(ghost)
		a.ApplyWithGhosts(ctx, &actions.StoreScratch{}, st, &ghosts)
		return st.All()[0]
	}
	gotA := side(1, own, ghost)
	gotB := side(4, ghost, own)

	// Elastic head-on swap: own ends at -1, ghost-owner's copy at +1.
	if gotA.Vel.X != -1 || gotB.Vel.X != 1 {
		t.Errorf("cross-owner collision: %v / %v", gotA.Vel, gotB.Vel)
	}
	// Momentum before = 0; after = sum of both owners' results.
	if gotA.Vel.X+gotB.Vel.X != 0 {
		t.Error("momentum not conserved across owners")
	}
}
