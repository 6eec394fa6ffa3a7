package core

import (
	"fmt"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// This file implements the baseline the paper's related-work section
// opens with: Karl Sims's data-parallel particle animation on the
// Connection Machine CM-2 [13]. "Each one of the processors receives a
// set of particles, independently of their localization in space" —
// round-robin dealing, no domains, no exchange, no load balancing.
//
// For independent particles this layout is perfectly balanced by
// construction. Its deficiency — the one the model's domain
// decomposition exists to fix (§3.1.4) — appears the moment particles
// interact: with no locality, collision detection needs every process
// to see every other process's particles, so each frame broadcasts the
// entire population as ghosts.
//
// The baseline is NOT bit-equivalent to the model: cross-process
// collision pairs are resolved by each owner independently, so
// multi-collision ordering within a frame can differ. Property and
// position actions remain exact.

// RunSimsBaseline executes the scenario with the Sims CM-2 strategy on
// the simulated cluster: a manager dealing particles round-robin, nCalc
// calculators with no domain structure, and the usual image generator.
func RunSimsBaseline(scn Scenario, cl *cluster.Cluster, nCalc int) (*Result, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if nCalc < 1 {
		return nil, fmt.Errorf("core: need at least one calculator")
	}
	for si := range scn.Systems {
		for _, a := range scn.Systems[si].Actions {
			if _, ok := a.(*actions.MatchVelocity); ok {
				return nil, fmt.Errorf("core: the Sims baseline does not support %q", a.Name())
			}
		}
	}
	place, err := cl.Place(nCalc)
	if err != nil {
		return nil, err
	}
	router := transport.NewRouter(place, cl.Net)

	ranks := []rankProc{
		&simsManager{scn: &scn, ep: router.Endpoint(rankManager), rate: place.Rate(rankManager), nCalc: nCalc},
		newImageGenProc(&scn, place, nCalc, router.Endpoint(rankImageGen)),
	}
	calcs := make([]*simsCalc, nCalc)
	for i := range calcs {
		calcs[i] = &simsCalc{
			scn: &scn, idx: i, ep: router.Endpoint(rankCalc0 + i),
			rate: place.Rate(rankCalc0 + i), nCalc: nCalc,
			sets: make([]*particle.ColumnStore, len(scn.Systems)),
		}
		for si := range calcs[i].sets {
			calcs[i].sets[si] = particle.NewColumnStore(scn.Axis, 0, 1, 1)
		}
		ranks = append(ranks, calcs[i])
	}
	if err := runRanks(ranks); err != nil {
		return nil, err
	}

	img := ranks[rankImageGen].(*imageGenProc)
	res := &Result{Frames: scn.Frames, FrameChecksums: img.checksums, FrameTimes: img.frameTimes}
	tallyRanks(res, ranks)
	ghosts := 0
	for _, c := range calcs {
		ghosts += c.ghostsSent
		res.CalcLoads = append(res.CalcLoads, storedLen(c.sets))
	}
	// For the baseline, "exchanged" is the ghost broadcast volume — the
	// traffic the model's locality avoids.
	res.ExchangedParticles = int(float64(ghosts) * scn.Ratio)
	res.ExchangedBytes = int(float64(ghosts*particle.WireSize) * scn.Ratio)
	if scn.CollectParticles {
		res.FinalParticles = make([][]particle.Particle, len(scn.Systems))
		for si := range scn.Systems {
			var all []particle.Particle
			for _, c := range calcs {
				all = append(all, c.sets[si].All()...)
			}
			sortParticles(all)
			res.FinalParticles[si] = all
		}
	}
	return res, nil
}

// simsManager creates particles and deals them round-robin.
type simsManager struct {
	scn   *Scenario
	ep    transport.Fabric
	rate  float64
	nCalc int
}

func (m *simsManager) endpoint() transport.Fabric { return m.ep }
func (m *simsManager) rank() int                  { return rankManager }

func (m *simsManager) run() error {
	scn := m.scn
	ctxs := make([]*actions.Context, len(scn.Systems))
	for i := range ctxs {
		ctxs[i] = &actions.Context{RNG: geom.NewRNG(scn.Systems[i].Seed), DT: scn.DT}
	}
	// One creating action's particles, and their round-robin deal.
	var created particle.Batch
	dealt := make([]particle.Batch, m.nCalc)
	for frame := 0; frame < scn.Frames; frame++ {
		for si := range scn.Systems {
			for _, a := range scn.Systems[si].Actions {
				ca, ok := a.(actions.CreateAction)
				if !ok {
					continue
				}
				created.Clear()
				ca.GenerateInto(ctxs[si], &created)
				m.ep.Clock().AdvanceWork(a.Cost()*float64(created.Len())*scn.Ratio, m.rate)
				for c := range dealt {
					dealt[c].Clear()
				}
				for i := range created.Pos {
					dealt[i%m.nCalc].AppendIndex(&created, i)
				}
				for c := 0; c < m.nCalc; c++ {
					payload := dealt[c].EncodeWire()
					m.ep.SendScaled(rankCalc0+c, transport.TagParticles, payload, scn.Ratio)
				}
			}
		}
		if !scn.PipelineFrames {
			m.ep.Recv(rankImageGen, transport.TagFrameDone)
		}
	}
	return nil
}

// simsCalc holds each system's particles as one undivided bag — no
// domains, no sub-domain bins: a one-bin store, whose single bin takes
// every coordinate whatever its nominal interval.
type simsCalc struct {
	scn   *Scenario
	idx   int
	ep    transport.Fabric
	rate  float64
	nCalc int
	sets  []*particle.ColumnStore

	// Decode scratch for inbound batches, the ghosts of the current
	// collide action, and the collide action's working memory.
	wire, ghosts particle.Batch
	storeScratch actions.StoreScratch

	ghostsSent int
}

// recvBatch receives one particle batch from rank into the decode
// scratch, valid until the next receive.
func (c *simsCalc) recvBatch(rank int) (*particle.Batch, error) {
	msg := c.ep.Recv(rank, transport.TagParticles)
	err := c.wire.DecodeWireInto(msg.Payload)
	msg.Release()
	return &c.wire, err
}

func (c *simsCalc) endpoint() transport.Fabric { return c.ep }
func (c *simsCalc) rank() int                  { return rankCalc0 + c.idx }

func (c *simsCalc) run() error {
	scn := c.scn
	ctxs := make([]*actions.Context, len(scn.Systems))
	for i := range ctxs {
		ctxs[i] = &actions.Context{
			RNG: geom.NewRNG(scn.Systems[i].Seed ^ uint64(rankCalc0+c.idx)<<32),
			DT:  scn.DT,
		}
	}
	for frame := 0; frame < scn.Frames; frame++ {
		for si := range scn.Systems {
			st := c.sets[si]
			for _, a := range scn.Systems[si].Actions {
				switch act := a.(type) {
				case actions.CreateAction:
					b, err := c.recvBatch(rankManager)
					if err != nil {
						return err
					}
					st.AddBatch(b)
				case *actions.CollideParticles:
					if err := c.broadcastGhosts(st); err != nil {
						return err
					}
					w := act.ApplyWithGhosts(ctxs[si], &c.storeScratch, st, &c.ghosts) * scn.Ratio
					c.ep.Clock().AdvanceWork(w, c.rate)
				case actions.ParticleAction:
					applyToSet(st, ctxs[si], act)
					c.ep.Clock().AdvanceWork(a.Cost()*float64(st.Len())*scn.Ratio, c.rate)
				default:
					return fmt.Errorf("core: sims baseline cannot run action %q", a.Name())
				}
			}
			for _, pa := range scn.scriptedFor(frame, si) {
				applyToSet(st, ctxs[si], pa)
				c.ep.Clock().AdvanceWork(pa.Cost()*float64(st.Len())*scn.Ratio, c.rate)
			}
			st.RemoveDead()

			// Render send, exactly as the model's calculators do.
			payload := encodeRenderSet(st)
			bill := 4 + int(float64(st.Len()*scn.Render.BytesPerParticle)*scn.Ratio)
			if bill < len(payload) {
				bill = len(payload)
			}
			c.ep.SendSized(rankImageGen, transport.TagRenderBatch, payload, bill)
		}
		if !scn.PipelineFrames {
			c.ep.Recv(rankImageGen, transport.TagFrameDone)
		}
	}
	return nil
}

// broadcastGhosts performs the all-to-all replication the Sims layout
// needs before any inter-particle test: every calculator ships its full
// set to every other, and collects theirs in c.ghosts by ascending rank.
func (c *simsCalc) broadcastGhosts(st *particle.ColumnStore) error {
	// Each send consumes ownership of its pooled buffer, so every
	// destination gets its own encoding of the set.
	for p := 0; p < c.nCalc; p++ {
		if p == c.idx {
			continue
		}
		c.ghostsSent += st.Len()
		payload := st.Bin(0).EncodeWire()
		c.ep.SendScaled(rankCalc0+p, transport.TagParticles, payload, c.scn.Ratio)
	}
	c.ghosts.Clear()
	for p := 0; p < c.nCalc; p++ {
		if p == c.idx {
			continue
		}
		b, err := c.recvBatch(rankCalc0 + p)
		if err != nil {
			return err
		}
		c.ghosts.AppendBatch(b)
	}
	return nil
}
