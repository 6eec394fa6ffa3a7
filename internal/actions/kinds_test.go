package actions

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pscluster/internal/geom"
)

// Every action type of the package — every type with a (*X) Name()
// method — has a row in Kinds, so a new kind without one fails here by
// name.
func TestKindsHaveEveryAction(t *testing.T) {
	rows := map[string]bool{}
	for name, row := range Kinds {
		a, _ := row(nil)
		if a.Name() != name {
			t.Errorf("row %q builds a %q", name, a.Name())
		}
		rows[reflect.TypeOf(a).Elem().Name()] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "Name" || fn.Recv == nil {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			found++
			if typ := star.X.(*ast.Ident).Name; !rows[typ] {
				t.Errorf("action %s has no row in Kinds", typ)
			}
		}
	}
	if found != len(Kinds) {
		t.Errorf("found %d action types, Kinds has %d rows", found, len(Kinds))
	}
}

// Check holds the value half of each rule: a nil required domain, a
// domain that is a nil pointer, and a bounded number that is negative,
// zero under a positive bound, NaN or +Inf; decode holds the other
// half, a required key's presence.
func TestParamCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    Action
		ok   bool
	}{
		{"source", &Source{Rate: 5, Pos: geom.PointDomain{}}, true},
		{"source-rate-zero", &Source{Pos: geom.PointDomain{}}, true},
		{"source-rate-negative", &Source{Rate: -1, Pos: geom.PointDomain{}}, false},
		{"source-no-pos", &Source{Rate: 5}, false},
		{"source-no-vel", &Source{Rate: 5, Pos: geom.PointDomain{}, Color: geom.PointDomain{}}, true},
		{"random-accel-no-domain", &RandomAccel{}, false},
		{"sink-no-domain", &Sink{}, false},
		{"jet-no-domain", &Jet{}, false},
		{"random-accel-domain-pointer", &RandomAccel{Domain: &geom.SphereDomain{OuterR: 1}}, true},
		{"random-accel-nil-domain-pointer", &RandomAccel{Domain: (*geom.SphereDomain)(nil)}, false},
		{"source-nil-vel-pointer", &Source{Pos: geom.PointDomain{}, Vel: (*geom.BoxDomain)(nil)}, false},
		{"restrict-to-zero-box", &RestrictToBox{}, true},
		{"collide", &CollideParticles{Radius: 0.5}, true},
		{"collide-zero", &CollideParticles{}, false},
		{"collide-nan", &CollideParticles{Radius: math.NaN()}, false},
		{"collide-inf", &CollideParticles{Radius: math.Inf(1)}, false},
		{"match-negative", &MatchVelocity{Radius: -1}, false},
		{"damping-negative", &Damping{Coeff: -1}, true},
	} {
		var err error
		_, ps := Kinds[tc.a.Name()](tc.a)
		for _, p := range ps {
			if err = p.Check(); err != nil {
				break
			}
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
