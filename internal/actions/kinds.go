package actions

import (
	"fmt"
	"math"
	"reflect"

	"pscluster/internal/geom"
)

// Param is one parameter of an action kind in Kinds — or one numeric
// field of a scenario, whose table core keeps in the same form: its key
// in the scenario format (a field's name, worded for an error), a
// pointer to the field it reads and sets, and the rule its value
// obeys. The scenario decoder refuses a document without a Required
// key; Check holds the rest of the rule.
type Param struct {
	Key string
	// Ptr is the field: *int, *float64, *bool, *geom.Vec3, *geom.AABB,
	// *geom.Axis or *geom.EmitDomain.
	Ptr      any
	Required bool
	Bound    string // "> 0", ">= 0" or ">= 1": a number must be finite and satisfy it
}

// Check reports a value the parameter's rule refuses, worded to follow
// the name of what holds it: a required domain that is nil, a domain
// that is a nil pointer, or a bounded number that is not finite or out
// of its bound.
func (p Param) Check() error {
	var v float64
	switch x := p.Ptr.(type) {
	case *geom.EmitDomain:
		if p.Required && *x == nil {
			return fmt.Errorf("has %s nil, want a domain", p.Key)
		}
		if d := reflect.ValueOf(*x); d.Kind() == reflect.Pointer && d.IsNil() {
			return fmt.Errorf("has %s a nil %T, want a domain", p.Key, *x)
		}
	case *float64:
		v = *x
	case *int:
		v = float64(*x)
	}
	in := map[string]bool{"> 0": v > 0, ">= 0": v >= 0, ">= 1": v >= 1}[p.Bound]
	if p.Bound != "" && !(in && v <= math.MaxFloat64) {
		return fmt.Errorf("has %s %v, want finite and %s", p.Key, v, p.Bound)
	}
	return nil
}

// row is one entry of Kinds: given an action of its kind, it returns
// that action and its parameters, each pointing into it; given nil, a
// new zero action of its kind and its parameters. An action of another
// kind, or a nil pointer, gets nil.
type row = func(Action) (Action, []Param)

// Kinds is the table of the library's action kinds, keyed by Name(),
// which is also the action's type in the scenario format. A row's keys,
// in row order, are the only other keys of the action's JSON object:
// the scenario codec writes and reads them through the row, and
// core.Scenario.Validate checks every action's parameters with Check.
var Kinds = kinds(
	// A negative rate or a nil position domain would panic the generator.
	kind(func(a *Source) []Param {
		return []Param{{Key: "rate", Ptr: &a.Rate, Bound: ">= 0"}, {Key: "pos", Ptr: &a.Pos, Required: true},
			{Key: "vel", Ptr: &a.Vel}, {Key: "color", Ptr: &a.Color}, {Key: "up", Ptr: &a.UpVec},
			{Key: "size", Ptr: &a.Size}, {Key: "alpha", Ptr: &a.Alpha}, {Key: "age_jitter", Ptr: &a.AgeJitter}}
	}),
	kind(func(a *Gravity) []Param { return []Param{{Key: "g", Ptr: &a.G}} }),
	kind(func(a *RandomAccel) []Param { return []Param{{Key: "domain", Ptr: &a.Domain, Required: true}} }),
	kind(func(a *Damping) []Param { return []Param{{Key: "coeff", Ptr: &a.Coeff}} }),
	kind(func(a *Bounce) []Param {
		return []Param{{Key: "point", Ptr: &a.Plane.Point}, {Key: "normal", Ptr: &a.Plane.Normal},
			{Key: "elasticity", Ptr: &a.Elasticity}, {Key: "friction", Ptr: &a.Friction}}
	}),
	kind(func(a *BounceSphere) []Param {
		return []Param{{Key: "center", Ptr: &a.Center}, {Key: "elasticity", Ptr: &a.Elasticity},
			{Key: "friction", Ptr: &a.Friction}, {Key: "radius", Ptr: &a.Radius}}
	}),
	kind(func(a *BounceDisc) []Param {
		return []Param{{Key: "normal", Ptr: &a.Disc.Normal}, {Key: "center", Ptr: &a.Disc.Center},
			{Key: "elasticity", Ptr: &a.Elasticity}, {Key: "friction", Ptr: &a.Friction},
			{Key: "inner_r", Ptr: &a.Disc.InnerR}, {Key: "outer_r", Ptr: &a.Disc.OuterR}}
	}),
	kind(func(a *BounceTriangle) []Param {
		return []Param{{Key: "elasticity", Ptr: &a.Elasticity}, {Key: "friction", Ptr: &a.Friction},
			{Key: "tri_a", Ptr: &a.Tri.A}, {Key: "tri_b", Ptr: &a.Tri.B}, {Key: "tri_c", Ptr: &a.Tri.C}}
	}),
	kind(func(a *Avoid) []Param {
		return []Param{{Key: "center", Ptr: &a.Center}, {Key: "radius", Ptr: &a.Radius},
			{Key: "strength", Ptr: &a.Strength}, {Key: "look_ahead", Ptr: &a.LookAhead}}
	}),
	kind(func(a *Sink) []Param {
		return []Param{{Key: "domain", Ptr: &a.Domain, Required: true}, {Key: "kill_inside", Ptr: &a.KillInside}}
	}),
	kind(func(a *SinkBelow) []Param {
		return []Param{{Key: "axis_name", Ptr: &a.Axis}, {Key: "threshold", Ptr: &a.Threshold}}
	}),
	kind(func(a *KillOld) []Param { return []Param{{Key: "max_age", Ptr: &a.MaxAge}} }),
	kind(func(a *OrbitPoint) []Param {
		return []Param{{Key: "center", Ptr: &a.Center}, {Key: "strength", Ptr: &a.Strength},
			{Key: "epsilon", Ptr: &a.Epsilon}}
	}),
	kind(func(a *Vortex) []Param {
		return []Param{{Key: "center", Ptr: &a.Center}, {Key: "axis", Ptr: &a.Axis}, {Key: "strength", Ptr: &a.Strength}}
	}),
	kind(func(a *Explosion) []Param {
		return []Param{{Key: "center", Ptr: &a.Center}, {Key: "speed", Ptr: &a.Speed}, {Key: "falloff", Ptr: &a.Falloff}}
	}),
	kind(func(a *Jet) []Param {
		return []Param{{Key: "domain", Ptr: &a.Region, Required: true}, {Key: "accel", Ptr: &a.Accel}}
	}),
	kind(func(a *TargetColor) []Param {
		return []Param{{Key: "rgb", Ptr: &a.Color}, {Key: "rate_per_sec", Ptr: &a.Rate}}
	}),
	kind(func(a *Fade) []Param { return []Param{{Key: "rate_per_sec", Ptr: &a.Rate}} }),
	kind(func(a *Grow) []Param { return []Param{{Key: "rate_per_sec", Ptr: &a.Rate}} }),
	kind(func(*OrientToVelocity) []Param { return nil }),
	kind(func(*Move) []Param { return nil }),
	kind(func(a *RestrictToBox) []Param { return []Param{{Key: "aabb", Ptr: &a.Box, Required: true}} }),
	// The neighbor grid's cell size: zero divides by zero in the cell
	// index, NaN and +Inf file every particle in one cell.
	kind(func(a *CollideParticles) []Param {
		return []Param{{Key: "elasticity", Ptr: &a.Elasticity}, {Key: "radius", Ptr: &a.Radius, Bound: "> 0"}}
	}),
	kind(func(a *MatchVelocity) []Param {
		return []Param{{Key: "radius", Ptr: &a.Radius, Bound: "> 0"}, {Key: "strength", Ptr: &a.Strength}}
	}),
)

// kind makes the row of the action kind *T from the function that lists
// an action's parameters.
func kind[T any, P interface {
	*T
	Action
}](params func(P) []Param) row {
	return func(a Action) (Action, []Param) {
		if a == nil {
			a = P(new(T))
		}
		p, ok := a.(P)
		if !ok || p == nil {
			return nil, nil
		}
		return p, params(p)
	}
}

// kinds keys the rows by the Name() of their kind.
func kinds(rows ...row) map[string]row {
	m := make(map[string]row, len(rows))
	for _, r := range rows {
		a, _ := r(nil)
		m[a.Name()] = r
	}
	return m
}
