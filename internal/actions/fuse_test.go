package actions

import (
	"strings"
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// fusableChains builds one concrete action chain per fused signature,
// with parameters that exercise the branches (clamped damping, dying
// particles, below-threshold sinks).
func fusableChains() [][]Action {
	return [][]Action{
		{&Gravity{G: geom.V(0, -9.8, 0)}, &Damping{Coeff: 0.4}, &Move{}},
		{&KillOld{MaxAge: 0.5}, &Fade{Rate: 4}, &Move{}},
		{&KillOld{MaxAge: 0.5}, &SinkBelow{Axis: geom.AxisY, Threshold: 0}, &Move{}},
		{&Gravity{G: geom.V(0, -9.8, 0)}, &Damping{Coeff: 20}},
		{&KillOld{MaxAge: 0.5}, &Fade{Rate: 4}},
		{&KillOld{MaxAge: 0.5}, &SinkBelow{Axis: geom.AxisY, Threshold: 0}},
		{&Damping{Coeff: 0.4}, &Move{}},
		{&Fade{Rate: 4}, &Move{}},
		{&SinkBelow{Axis: geom.AxisY, Threshold: 0}, &Move{}},
		{&Gravity{G: geom.V(0, -9.8, 0)}, &Move{}},
	}
}

func chainName(acts []Action) string {
	s := acts[0].Name()
	for _, a := range acts[1:] {
		s += "+" + a.Name()
	}
	return s
}

// Every fused kernel must perform the exact float operations of its
// sequential column passes, per particle and in action order — the
// bit-equality contract behind the engine's default-on fusion.
func TestFusedKernelsMatchSequentialPasses(t *testing.T) {
	// The engines cannot turn fusion off, so this is the only proof a
	// fused kernel gets: every registered signature must have a chain.
	covered := map[string]bool{}
	for _, chain := range fusableChains() {
		covered[chainName(chain)] = true
	}
	for _, sig := range fuseSigs {
		if name := strings.Join(sig.names, "+"); !covered[name] {
			t.Errorf("fuseSigs has %q but fusableChains has no chain for it", name)
		}
	}
	for _, chain := range fusableChains() {
		t.Run(chainName(chain), func(t *testing.T) {
			runs := FusePlan(chain, true)
			if len(runs) != 1 || runs[0].Fused == nil {
				t.Fatalf("FusePlan produced %d runs (fused=%v), want 1 fused run",
					len(runs), len(runs) > 0 && runs[0].Fused != nil)
			}
			if len(runs[0].Acts) != len(chain) {
				t.Fatalf("fused run covers %d actions, want %d", len(runs[0].Acts), len(chain))
			}
			want := randBatch(500, 99)
			got := randBatch(500, 99)
			for _, r := range FusePlan(chain, false) {
				ApplyToBatch(ctx(), r.Acts[0], want)
			}
			runs[0].Fused(ctx(), got)
			for i := 0; i < want.Len(); i++ {
				if want.At(i) != got.At(i) {
					t.Fatalf("particle %d diverges:\nsequential %+v\nfused      %+v",
						i, want.At(i), got.At(i))
				}
			}
		})
	}
}

// FusePlan must tile a realistic frame program greedily: the
// hotPipeline compiles to fused(gravity+damping), bounce,
// fused(kill-old+fade+move).
func TestFusePlanTilesHotPipeline(t *testing.T) {
	acts := make([]Action, 0)
	for _, a := range hotPipeline() {
		acts = append(acts, a)
	}
	runs := FusePlan(acts, true)
	wantLens := []int{2, 1, 3}
	wantFused := []bool{true, false, true}
	if len(runs) != len(wantLens) {
		t.Fatalf("got %d runs, want %d: %+v", len(runs), len(wantLens), runs)
	}
	for i, r := range runs {
		if len(r.Acts) != wantLens[i] {
			t.Errorf("run %d covers %d actions, want %d", i, len(r.Acts), wantLens[i])
		}
		if (r.Fused != nil) != wantFused[i] {
			t.Errorf("run %d fused=%v, want %v", i, r.Fused != nil, wantFused[i])
		}
	}
}

// The reference path: fuse=false compiles one unfused run per action.
func TestFusePlanUnfused(t *testing.T) {
	acts := make([]Action, 0)
	for _, a := range hotPipeline() {
		acts = append(acts, a)
	}
	runs := FusePlan(acts, false)
	if len(runs) != len(acts) {
		t.Fatalf("got %d runs, want %d", len(runs), len(acts))
	}
	for i, r := range runs {
		if r.Fused != nil || len(r.Acts) != 1 {
			t.Errorf("run %d: fused=%v acts=%d, want plain single action", i, r.Fused != nil, len(r.Acts))
		}
	}
}

// Shape precedence matches the engines: creation and store actions get
// their own runs and break per-particle stretches.
func TestFusePlanShapes(t *testing.T) {
	acts := []Action{
		&Source{Rate: 10, Pos: geom.PointDomain{}, Color: geom.PointDomain{}},
		&Gravity{G: geom.V(0, -9.8, 0)},
		&Damping{Coeff: 0.1},
		&CollideParticles{Radius: 0.5},
		&Move{},
	}
	runs := FusePlan(acts, true)
	if len(runs) != 4 {
		t.Fatalf("got %d runs, want 4: %+v", len(runs), runs)
	}
	if runs[0].Create == nil {
		t.Error("run 0: want a creation run")
	}
	if runs[1].Fused == nil || len(runs[1].Acts) != 2 {
		t.Error("run 1: want fused gravity+damping")
	}
	if runs[2].Store == nil {
		t.Error("run 2: want a store run")
	}
	if runs[3].Fused != nil || len(runs[3].Acts) != 1 {
		t.Error("run 3: want a plain move run")
	}
}

// fakeGravity reuses the built-in name with a foreign type; the factory
// type assertion must reject it and fall back to unfused runs.
type fakeGravity struct{}

func (fakeGravity) Name() string                           { return "gravity" }
func (fakeGravity) Kind() Kind                             { return KindProperty }
func (fakeGravity) Cost() float64                          { return 1 }
func (fakeGravity) Apply(_ *Context, p *particle.Particle) { p.Vel.Y -= 1 }

func TestFusePlanForeignNameFallsBack(t *testing.T) {
	acts := []Action{fakeGravity{}, &Damping{Coeff: 0.1}, &Move{}}
	runs := FusePlan(acts, true)
	if len(runs) == 0 || runs[0].Fused != nil || len(runs[0].Acts) != 1 {
		t.Fatalf("foreign 'gravity' fused anyway: %+v", runs)
	}
	// The rest of the stretch still fuses.
	if len(runs) != 2 || runs[1].Fused == nil || len(runs[1].Acts) != 2 {
		t.Fatalf("damping+move after the fallback should fuse: %+v", runs)
	}
}

// BenchmarkFusedVsUnfused runs the hotPipeline program over a binned
// store, fused versus one column pass per action.
func BenchmarkFusedVsUnfused(b *testing.B) {
	const n = 10000
	acts := make([]Action, 0)
	for _, a := range hotPipeline() {
		acts = append(acts, a)
	}
	for _, mode := range []struct {
		name string
		fuse bool
	}{{"fused", true}, {"per-action", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchStore(n, 50)
			runs := FusePlan(acts, mode.fuse)
			c := ctx()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ri := range runs {
					r := &runs[ri]
					if r.Fused != nil {
						s.EachBatch(func(batch *particle.Batch) { r.Fused(c, batch) })
						continue
					}
					s.EachBatch(func(batch *particle.Batch) { ApplyToBatch(c, r.Acts[0], batch) })
				}
			}
		})
	}
}
