package actions

import (
	"math"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

func ctx() *Context { return &Context{RNG: geom.NewRNG(1), DT: 0.1} }

func TestSourceGenerate(t *testing.T) {
	s := &Source{
		Rate:  100,
		Pos:   geom.BoxDomain{B: geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))},
		Vel:   geom.PointDomain{P: geom.V(0, -1, 0)},
		Color: geom.PointDomain{P: geom.V(1, 0, 0)},
		Size:  0.5, Alpha: 0.8, AgeJitter: 2,
	}
	ps := s.Generate(ctx())
	if len(ps) != 100 {
		t.Fatalf("generated %d", len(ps))
	}
	for _, p := range ps {
		if !s.Pos.Within(p.Pos) {
			t.Fatalf("particle outside source domain: %v", p.Pos)
		}
		if p.Vel != geom.V(0, -1, 0) || p.Color != geom.V(1, 0, 0) {
			t.Fatalf("vel/color wrong: %+v", p)
		}
		if p.Size != 0.5 || p.Alpha != 0.8 {
			t.Fatalf("size/alpha wrong: %+v", p)
		}
		if p.Age < 0 || p.Age >= 2 {
			t.Fatalf("age jitter out of range: %v", p.Age)
		}
	}
}

func TestSourceDefaults(t *testing.T) {
	s := &Source{Rate: 3, Pos: geom.PointDomain{P: geom.V(1, 2, 3)}}
	for _, p := range s.Generate(ctx()) {
		if p.Color != geom.V(1, 1, 1) {
			t.Errorf("default color = %v", p.Color)
		}
		if p.Vel != geom.V(0, 0, 0) || p.Age != 0 {
			t.Errorf("defaults wrong: %+v", p)
		}
	}
}

// generateRecords is the record-at-a-time Source generator GenerateInto
// replaced: one Particle per draw sequence, position, velocity, color,
// age, private stream.
func generateRecords(s *Source, ctx *Context) []particle.Particle {
	ps := make([]particle.Particle, s.Rate)
	for i := range ps {
		p := &ps[i]
		p.Pos = s.Pos.Generate(ctx.RNG)
		if s.Vel != nil {
			p.Vel = s.Vel.Generate(ctx.RNG)
		}
		if s.Color != nil {
			p.Color = s.Color.Generate(ctx.RNG)
		} else {
			p.Color = geom.V(1, 1, 1)
		}
		p.Up, p.Size, p.Alpha = s.UpVec, s.Size, s.Alpha
		if s.AgeJitter > 0 {
			p.Age = ctx.RNG.Range(0, s.AgeJitter)
		}
		p.Rand = ctx.RNG.Uint64()
	}
	return ps
}

// GenerateInto appends exactly the records' particles, draws in the
// same order, behind whatever the batch already holds — and, into a
// warm batch, allocates nothing.
func TestGenerateIntoMatchesRecordOracle(t *testing.T) {
	for _, s := range []*Source{
		{Rate: 57, Pos: geom.BoxDomain{B: geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))},
			Vel: geom.SphereDomain{OuterR: 2}, Color: geom.BoxDomain{B: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))},
			UpVec: geom.V(0, 1, 0), Size: 0.5, Alpha: 0.8, AgeJitter: 2},
		{Rate: 9, Pos: geom.PointDomain{P: geom.V(1, 2, 3)}},
		{Rate: 0, Pos: geom.PointDomain{P: geom.V(1, 2, 3)}},
	} {
		wantCtx := ctx()
		want := append(generateRecords(s, wantCtx), generateRecords(s, wantCtx)...)
		c := ctx()
		var b particle.Batch
		s.GenerateInto(c, &b)
		s.GenerateInto(c, &b)
		if b.Len() != 2*s.Rate {
			t.Fatalf("rate %d: two calls appended %d particles", s.Rate, b.Len())
		}
		for i, p := range want {
			if b.At(i) != p {
				t.Fatalf("rate %d: particle %d = %+v, want %+v", s.Rate, i, b.At(i), p)
			}
		}
		if c.RNG.Save() != wantCtx.RNG.Save() {
			t.Errorf("rate %d: system stream left in a different state", s.Rate)
		}
		if allocs := testing.AllocsPerRun(20, func() { b.Clear(); s.GenerateInto(c, &b) }); allocs != 0 {
			t.Errorf("rate %d: GenerateInto into a warm batch: %v allocs, want 0", s.Rate, allocs)
		}
	}
}

func TestGravity(t *testing.T) {
	a := &Gravity{G: geom.V(0, -10, 0)}
	p := particle.Particle{Vel: geom.V(1, 0, 0)}
	a.Apply(ctx(), &p)
	if p.Vel != geom.V(1, -1, 0) {
		t.Errorf("vel = %v", p.Vel)
	}
	if p.Pos != geom.V(0, 0, 0) {
		t.Error("gravity moved the particle (must be a property action)")
	}
}

func TestRandomAccelPerturbsVelocity(t *testing.T) {
	a := &RandomAccel{Domain: geom.SphereDomain{OuterR: 5}}
	p := particle.Particle{}
	a.Apply(ctx(), &p)
	if p.Vel == geom.V(0, 0, 0) {
		t.Error("velocity unchanged")
	}
	if p.Vel.Len() > 0.5+1e-9 { // |accel| <= 5, dt = 0.1
		t.Errorf("perturbation too large: %v", p.Vel)
	}
}

func TestDamping(t *testing.T) {
	a := &Damping{Coeff: 2}
	p := particle.Particle{Vel: geom.V(10, 0, 0)}
	a.Apply(ctx(), &p) // factor 1 - 0.2 = 0.8
	if math.Abs(p.Vel.X-8) > 1e-12 {
		t.Errorf("vel = %v", p.Vel)
	}
	// Over-strong damping clamps at zero, never reverses.
	b := &Damping{Coeff: 100}
	b.Apply(ctx(), &p)
	if p.Vel.X < 0 {
		t.Error("damping reversed velocity")
	}
}

func TestBounceReflectsOnlyImpacting(t *testing.T) {
	floor := &Bounce{Plane: geom.NewPlane(geom.V(0, 0, 0), geom.V(0, 1, 0)), Elasticity: 0.5}
	// Falling particle just above the floor: bounces.
	p := particle.Particle{Pos: geom.V(0, 0.05, 0), Vel: geom.V(2, -3, 0)}
	floor.Apply(ctx(), &p)
	if p.Vel.Y != 1.5 { // -(-3)*0.5
		t.Errorf("bounced vy = %v, want 1.5", p.Vel.Y)
	}
	if p.Vel.X != 2 {
		t.Errorf("tangential component changed without friction: %v", p.Vel.X)
	}
	// Far above the floor: unaffected.
	q := particle.Particle{Pos: geom.V(0, 10, 0), Vel: geom.V(0, -3, 0)}
	floor.Apply(ctx(), &q)
	if q.Vel.Y != -3 {
		t.Error("distant particle bounced")
	}
	// Rising particle: unaffected.
	r := particle.Particle{Pos: geom.V(0, 0.05, 0), Vel: geom.V(0, 3, 0)}
	floor.Apply(ctx(), &r)
	if r.Vel.Y != 3 {
		t.Error("rising particle bounced")
	}
}

func TestBounceFriction(t *testing.T) {
	floor := &Bounce{Plane: geom.NewPlane(geom.V(0, 0, 0), geom.V(0, 1, 0)),
		Elasticity: 1, Friction: 0.5}
	p := particle.Particle{Pos: geom.V(0, 0.01, 0), Vel: geom.V(4, -2, 0)}
	floor.Apply(ctx(), &p)
	if p.Vel.X != 2 || p.Vel.Y != 2 {
		t.Errorf("vel = %v, want (2, 2, 0)", p.Vel)
	}
}

func TestSink(t *testing.T) {
	dom := geom.SphereDomain{Center: geom.V(0, 0, 0), OuterR: 1}
	inside := &Sink{Domain: dom, KillInside: true}
	outside := &Sink{Domain: dom, KillInside: false}
	p := particle.Particle{Pos: geom.V(0.5, 0, 0)}
	inside.Apply(ctx(), &p)
	if !p.Dead {
		t.Error("inside sink did not kill")
	}
	q := particle.Particle{Pos: geom.V(0.5, 0, 0)}
	outside.Apply(ctx(), &q)
	if q.Dead {
		t.Error("outside sink killed an inside particle")
	}
	r := particle.Particle{Pos: geom.V(5, 0, 0)}
	outside.Apply(ctx(), &r)
	if !r.Dead {
		t.Error("outside sink did not kill an outside particle")
	}
}

func TestSinkBelow(t *testing.T) {
	a := &SinkBelow{Axis: geom.AxisY, Threshold: 0}
	p := particle.Particle{Pos: geom.V(0, -0.1, 0)}
	a.Apply(ctx(), &p)
	if !p.Dead {
		t.Error("particle below threshold survived")
	}
	q := particle.Particle{Pos: geom.V(0, 0.1, 0)}
	a.Apply(ctx(), &q)
	if q.Dead {
		t.Error("particle above threshold died")
	}
}

func TestKillOld(t *testing.T) {
	a := &KillOld{MaxAge: 5}
	p := particle.Particle{Age: 6}
	a.Apply(ctx(), &p)
	if !p.Dead {
		t.Error("old particle survived")
	}
	q := particle.Particle{Age: 4}
	a.Apply(ctx(), &q)
	if q.Dead {
		t.Error("young particle died")
	}
}

func TestOrbitPointPullsInward(t *testing.T) {
	a := &OrbitPoint{Center: geom.V(0, 0, 0), Strength: 10, Epsilon: 0.01}
	p := particle.Particle{Pos: geom.V(2, 0, 0)}
	a.Apply(ctx(), &p)
	if p.Vel.X >= 0 {
		t.Errorf("vel.X = %v, want negative (pull toward center)", p.Vel.X)
	}
}

func TestVortexIsTangential(t *testing.T) {
	a := &Vortex{Center: geom.V(0, 0, 0), Axis: geom.V(0, 1, 0), Strength: 10}
	p := particle.Particle{Pos: geom.V(1, 0, 0)}
	a.Apply(ctx(), &p)
	// Tangential direction at (1,0,0) around +Y axis is ±Z.
	if math.Abs(p.Vel.X) > 1e-12 || math.Abs(p.Vel.Y) > 1e-12 || p.Vel.Z == 0 {
		t.Errorf("vortex vel = %v, want pure Z", p.Vel)
	}
}

func TestExplosionPushesOutward(t *testing.T) {
	a := &Explosion{Center: geom.V(0, 0, 0), Speed: 100, Falloff: 1}
	near := particle.Particle{Pos: geom.V(1, 0, 0)}
	far := particle.Particle{Pos: geom.V(10, 0, 0)}
	a.Apply(ctx(), &near)
	a.Apply(ctx(), &far)
	if near.Vel.X <= 0 || far.Vel.X <= 0 {
		t.Error("explosion should push outward")
	}
	if far.Vel.X >= near.Vel.X {
		t.Error("explosion should fall off with distance")
	}
}

func TestJetOnlyInsideRegion(t *testing.T) {
	a := &Jet{Region: geom.BoxDomain{B: geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))},
		Accel: geom.V(0, 100, 0)}
	in := particle.Particle{Pos: geom.V(0.5, 0.5, 0.5)}
	out := particle.Particle{Pos: geom.V(5, 5, 5)}
	a.Apply(ctx(), &in)
	a.Apply(ctx(), &out)
	if in.Vel.Y != 10 {
		t.Errorf("inside vel = %v", in.Vel)
	}
	if out.Vel.Y != 0 {
		t.Errorf("outside vel = %v", out.Vel)
	}
}

func TestTargetColorConverges(t *testing.T) {
	a := &TargetColor{Color: geom.V(1, 0, 0), Rate: 1}
	p := particle.Particle{Color: geom.V(0, 0, 1)}
	for i := 0; i < 200; i++ {
		a.Apply(ctx(), &p)
	}
	if p.Color.Dist(geom.V(1, 0, 0)) > 0.01 {
		t.Errorf("color did not converge: %v", p.Color)
	}
	// Rate*DT > 1 clamps rather than overshooting.
	b := &TargetColor{Color: geom.V(0, 1, 0), Rate: 100}
	b.Apply(ctx(), &p)
	if p.Color != geom.V(0, 1, 0) {
		t.Errorf("clamped blend = %v", p.Color)
	}
}

func TestFadeKillsAtZero(t *testing.T) {
	a := &Fade{Rate: 1}
	p := particle.Particle{Alpha: 0.15}
	a.Apply(ctx(), &p) // 0.05
	if p.Dead {
		t.Error("died too early")
	}
	a.Apply(ctx(), &p) // <= 0
	if !p.Dead || p.Alpha != 0 {
		t.Errorf("fade end state: %+v", p)
	}
}

func TestGrowClampsAtZero(t *testing.T) {
	a := &Grow{Rate: -10}
	p := particle.Particle{Size: 0.5}
	a.Apply(ctx(), &p)
	if p.Size < 0 {
		t.Error("size went negative")
	}
}

func TestOrientToVelocity(t *testing.T) {
	a := &OrientToVelocity{}
	p := particle.Particle{Vel: geom.V(0, 0, 5), Up: geom.V(0, 1, 0)}
	a.Apply(ctx(), &p)
	if p.Up != geom.V(0, 0, 1) {
		t.Errorf("up = %v", p.Up)
	}
	q := particle.Particle{Up: geom.V(0, 1, 0)}
	a.Apply(ctx(), &q)
	if q.Up != geom.V(0, 1, 0) {
		t.Error("zero velocity should leave orientation alone")
	}
}

func TestMoveIntegratesAndAges(t *testing.T) {
	a := &Move{}
	p := particle.Particle{Pos: geom.V(1, 1, 1), Vel: geom.V(10, 0, -10), Age: 2}
	a.Apply(ctx(), &p)
	if p.Pos != geom.V(2, 1, 0) {
		t.Errorf("pos = %v", p.Pos)
	}
	if math.Abs(p.Age-2.1) > 1e-12 {
		t.Errorf("age = %v", p.Age)
	}
}

func TestRestrictToBox(t *testing.T) {
	a := &RestrictToBox{Box: geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10))}
	p := particle.Particle{Pos: geom.V(12, 5, -1), Vel: geom.V(3, 1, -2)}
	a.Apply(ctx(), &p)
	if p.Pos != geom.V(10, 5, 0) {
		t.Errorf("pos = %v", p.Pos)
	}
	if p.Vel.X != 0 || p.Vel.Z != 0 || p.Vel.Y != 1 {
		t.Errorf("vel = %v", p.Vel)
	}
}

func TestKindTaxonomy(t *testing.T) {
	cases := []struct {
		a    Action
		want Kind
	}{
		{&Source{}, KindCreate},
		{&Gravity{}, KindProperty},
		{&RandomAccel{}, KindProperty},
		{&Damping{}, KindProperty},
		{&Bounce{}, KindProperty},
		{&BounceSphere{}, KindProperty},
		{&BounceDisc{}, KindProperty},
		{&BounceTriangle{}, KindProperty},
		{&Avoid{}, KindProperty},
		{&Sink{}, KindProperty},
		{&SinkBelow{}, KindProperty},
		{&KillOld{}, KindProperty},
		{&OrbitPoint{}, KindProperty},
		{&Vortex{}, KindProperty},
		{&Explosion{}, KindProperty},
		{&Jet{}, KindProperty},
		{&TargetColor{}, KindProperty},
		{&Fade{}, KindProperty},
		{&Grow{}, KindProperty},
		{&OrientToVelocity{}, KindProperty},
		{&Move{}, KindPosition},
		{&RestrictToBox{}, KindPosition},
		{&CollideParticles{}, KindStore},
		{&MatchVelocity{}, KindStore},
	}
	for _, c := range cases {
		if c.a.Kind() != c.want {
			t.Errorf("%s kind = %v, want %v", c.a.Name(), c.a.Kind(), c.want)
		}
		if c.a.Cost() <= 0 {
			t.Errorf("%s has non-positive cost", c.a.Name())
		}
		if c.a.Name() == "" {
			t.Error("empty action name")
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCreate: "create", KindProperty: "property",
		KindPosition: "position", KindStore: "store",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}
