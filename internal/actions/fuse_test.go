package actions

import (
	"testing"

	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// hybridCreate claims every shape; Create must win.
type hybridCreate struct{ Gravity }

func (hybridCreate) GenerateInto(*Context, *particle.Batch) {}
func (hybridCreate) ApplyStore(*Context, *StoreScratch, *particle.ColumnStore) float64 {
	return 0
}

// hybridStore is both a store and a per-particle action; Store must win.
type hybridStore struct{ Gravity }

func (hybridStore) ApplyStore(*Context, *StoreScratch, *particle.ColumnStore) float64 { return 0 }

// opaque has no recognized shape.
type opaque struct{}

func (opaque) Name() string  { return "opaque" }
func (opaque) Kind() Kind    { return KindProperty }
func (opaque) Cost() float64 { return 1 }

// runShape names the one shape set on r, or "" when none or several are.
func runShape(r Run) string {
	shape, n := "", 0
	if r.Create != nil {
		shape, n = "create", n+1
	}
	if r.Store != nil {
		shape, n = "store", n+1
	}
	if r.Acts != nil {
		shape, n = "particle", n+1
	}
	if r.Unknown != nil {
		shape, n = "unknown", n+1
	}
	if n != 1 {
		return ""
	}
	return shape
}

// runAction is the action r was compiled from.
func runAction(r Run) Action {
	switch {
	case r.Create != nil:
		return r.Create
	case r.Store != nil:
		return r.Store
	case len(r.Acts) == 1:
		return r.Acts[0]
	}
	return r.Unknown
}

// FusePlan compiles every action to its own run, in list order, with
// the shape precedence Create > Store > ParticleAction > Unknown and no
// fused kernel, whatever fuse says. The rows named after a chain of
// per-particle actions are the chains the engines once merged into one
// pass.
func TestFusePlanShapes(t *testing.T) {
	grav := func() Action { return &Gravity{G: geom.V(0, -9.8, 0)} }
	damp := func() Action { return &Damping{Coeff: 0.4} }
	kill := func() Action { return &KillOld{MaxAge: 0.5} }
	fade := func() Action { return &Fade{Rate: 4} }
	sink := func() Action { return &SinkBelow{Axis: geom.AxisY, Threshold: 0} }
	move := func() Action { return &Move{} }
	chains := [][]Action{
		{grav(), damp(), move()},
		{kill(), fade(), move()},
		{kill(), sink(), move()},
		{grav(), damp()},
		{kill(), fade()},
		{kill(), sink()},
		{damp(), move()},
		{fade(), move()},
		{sink(), move()},
		{grav(), move()},
	}
	type row struct {
		name   string
		acts   []Action
		shapes []string
	}
	var rows []row
	for _, c := range chains {
		name := c[0].Name()
		shapes := []string{"particle"}
		for _, a := range c[1:] {
			name += "+" + a.Name()
			shapes = append(shapes, "particle")
		}
		rows = append(rows, row{name, c, shapes})
	}
	rows = append(rows, row{
		name: "mixed",
		acts: []Action{
			&Source{Rate: 10, Pos: geom.PointDomain{}, Color: geom.PointDomain{}},
			grav(), damp(),
			&CollideParticles{Radius: 0.5},
			move(),
			&hybridCreate{}, &hybridStore{}, opaque{},
			kill(), sink(), move(),
		},
		shapes: []string{"create", "particle", "particle", "store", "particle",
			"create", "store", "unknown", "particle", "particle", "particle"},
	})
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			for _, fuse := range []bool{true, false} {
				runs := FusePlan(tc.acts, fuse)
				if len(runs) != len(tc.acts) {
					t.Fatalf("fuse=%v: %d runs for %d actions", fuse, len(runs), len(tc.acts))
				}
				for i, r := range runs {
					if got := runShape(r); got != tc.shapes[i] {
						t.Errorf("fuse=%v run %d: shape %q, want %q", fuse, i, got, tc.shapes[i])
					}
					if len(r.Acts) > 1 {
						t.Errorf("fuse=%v run %d: covers %d actions, want 1", fuse, i, len(r.Acts))
					}
					if r.Fused != nil {
						t.Errorf("fuse=%v run %d: has a fused kernel", fuse, i)
					}
					if runAction(r) != tc.acts[i] {
						t.Errorf("fuse=%v run %d: compiled from %v, want action %d of the list", fuse, i, runAction(r), i)
					}
				}
			}
		})
	}
}

// With fuse=false a representative frame program over the hot actions
// compiles to one plain single-action run per action.
func TestFusePlanUnfused(t *testing.T) {
	acts := []Action{
		&Gravity{G: geom.V(0, -9.8, 0)},
		&Damping{Coeff: 0.1},
		&Bounce{Plane: geom.NewPlane(geom.V(0, -5, 0), geom.V(0, 1, 0)), Elasticity: 0.5},
		&KillOld{MaxAge: 1e9},
		&Fade{Rate: 1e-9},
		&Move{},
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
