// Package scenario serializes animation scenarios to and from JSON, so
// animations can be described declaratively and run with psanim instead
// of being compiled in. Every action of the library and every emission
// domain has a tagged JSON form; unknown types fail loudly.
package scenario

import (
	"fmt"
	"reflect"
	"strings"

	"pscluster/internal/actions"
	"pscluster/internal/geom"
)

// vec is the JSON form of a Vec3: a three-element array.
type vec [3]float64

func fromVec(v geom.Vec3) vec   { return vec{v.X, v.Y, v.Z} }
func (v vec) toVec3() geom.Vec3 { return geom.V(v[0], v[1], v[2]) }

// jsonBox is the JSON form of an AABB.
type jsonBox struct {
	Min vec `json:"min"`
	Max vec `json:"max"`
}

func fromBox(b geom.AABB) jsonBox { return jsonBox{fromVec(b.Min), fromVec(b.Max)} }
func (b jsonBox) toAABB() geom.AABB {
	return geom.AABB{Min: b.Min.toVec3(), Max: b.Max.toVec3()}
}

// jsonDomain is the tagged JSON form of an emission domain.
type jsonDomain struct {
	Type   string   `json:"type"`
	Point  *vec     `json:"point,omitempty"`
	A      *vec     `json:"a,omitempty"`
	B      *vec     `json:"b,omitempty"`
	C      *vec     `json:"c,omitempty"`
	Box    *jsonBox `json:"box,omitempty"`
	Center *vec     `json:"center,omitempty"`
	Normal *vec     `json:"normal,omitempty"`
	Apex   *vec     `json:"apex,omitempty"`
	Base   *vec     `json:"base,omitempty"`
	InnerR float64  `json:"inner_r,omitempty"`
	OuterR float64  `json:"outer_r,omitempty"`
	Radius float64  `json:"radius,omitempty"`
}

// domainKind is one row of domainKinds: a domain's JSON type, its Go
// type, and the parameters of the domain ptr (a pointer to that type)
// points to.
type domainKind struct {
	name   string
	typ    reflect.Type
	params func(ptr any) []param
}

// param shortens the rows of domainKinds.
type param = actions.Param

func domain[T geom.EmitDomain](name string, params func(*T) []param) domainKind {
	return domainKind{name, reflect.TypeFor[T](), func(p any) []param { return params(p.(*T)) }}
}

// domainKinds is the table of emission domain kinds, in the form of
// actions.Kinds: the codec encodes and decodes a domain through its row.
var domainKinds = []domainKind{
	domain("point", func(d *geom.PointDomain) []param { return []param{{Key: "point", Ptr: &d.P, Required: true}} }),
	domain("line", func(d *geom.LineDomain) []param {
		return []param{{Key: "a", Ptr: &d.A, Required: true}, {Key: "b", Ptr: &d.B, Required: true}}
	}),
	domain("box", func(d *geom.BoxDomain) []param { return []param{{Key: "box", Ptr: &d.B, Required: true}} }),
	domain("sphere", func(d *geom.SphereDomain) []param {
		return []param{{Key: "center", Ptr: &d.Center}, {Key: "inner_r", Ptr: &d.InnerR}, {Key: "outer_r", Ptr: &d.OuterR}}
	}),
	domain("disc", func(d *geom.DiscDomain) []param {
		return []param{{Key: "center", Ptr: &d.Center}, {Key: "normal", Ptr: &d.Normal, Required: true},
			{Key: "inner_r", Ptr: &d.InnerR}, {Key: "outer_r", Ptr: &d.OuterR}}
	}),
	domain("cylinder", func(d *geom.CylinderDomain) []param {
		return []param{{Key: "a", Ptr: &d.A, Required: true}, {Key: "b", Ptr: &d.B, Required: true},
			{Key: "radius", Ptr: &d.Radius}}
	}),
	domain("cone", func(d *geom.ConeDomain) []param {
		return []param{{Key: "apex", Ptr: &d.Apex, Required: true}, {Key: "base", Ptr: &d.Base, Required: true},
			{Key: "radius", Ptr: &d.Radius}}
	}),
	domain("triangle", func(d *geom.TriangleDomain) []param {
		return []param{{Key: "a", Ptr: &d.A, Required: true}, {Key: "b", Ptr: &d.B, Required: true},
			{Key: "c", Ptr: &d.C, Required: true}}
	}),
}

func encodeDomain(d geom.EmitDomain) (*jsonDomain, error) {
	if d == nil {
		return nil, nil
	}
	for _, k := range domainKinds {
		if reflect.TypeOf(d) == k.typ {
			p := reflect.New(k.typ)
			p.Elem().Set(reflect.ValueOf(d))
			j := &jsonDomain{Type: k.name}
			return j, encodeParams(j, k.params(p.Interface()))
		}
	}
	return nil, fmt.Errorf("scenario: cannot encode emission domain %T", d)
}

func decodeDomain(j *jsonDomain) (geom.EmitDomain, error) {
	if j == nil {
		return nil, nil
	}
	for _, k := range domainKinds {
		if j.Type == k.name {
			p := reflect.New(k.typ)
			if err := decodeParams(j, k.params(p.Interface()), "domain ", j.Type); err != nil {
				return nil, err
			}
			return p.Elem().Interface().(geom.EmitDomain), nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown emission domain type %q", j.Type)
}

// slotKeys maps each JSON key of the structs the parameter codec fills
// to its field index.
var slotKeys = map[reflect.Type]map[string]int{}

func init() {
	for _, t := range []reflect.Type{reflect.TypeFor[jsonAction](), reflect.TypeFor[jsonDomain]()} {
		slotKeys[t] = map[string]int{}
		for i := range t.NumField() {
			k, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			slotKeys[t][k] = i
		}
	}
}

// slot returns the field of the JSON struct *st (a jsonAction or a
// jsonDomain) whose key is key. The tables and the JSON structs agree
// on every key and its type — TestKindsRoundTripEveryField and
// TestDomainRoundTrips pin that — so a mismatch is a bug of this
// package, and panics like one.
func slot(st any, key string) reflect.Value {
	v := reflect.ValueOf(st).Elem()
	i, ok := slotKeys[v.Type()][key]
	if !ok {
		panic(fmt.Sprintf("scenario: %T has no key %q", st, key))
	}
	return v.Field(i)
}

// encodeParams writes each parameter's value into the slot of the JSON
// struct *st its key names; a number or a bool is stored as it is.
func encodeParams(st any, ps []param) (err error) {
	for _, p := range ps {
		var v any
		switch x := p.Ptr.(type) {
		case *geom.Vec3:
			j := fromVec(*x)
			v = &j
		case *geom.AABB:
			j := fromBox(*x)
			v = &j
		case *geom.Axis:
			v = enumName(axisNames, *x)
		case *geom.EmitDomain:
			if v, err = encodeDomain(*x); err != nil {
				return err
			}
		default:
			v = reflect.ValueOf(p.Ptr).Elem().Interface()
		}
		slot(st, p.Key).Set(reflect.ValueOf(v))
	}
	return nil
}

// decodeParams sets each parameter from the slot of the JSON struct *st
// its key names. An absent slot — zero, since every field is omitempty
// — leaves the parameter zero and is an error for a required one,
// which names the action or domain as what and name ("domain ", "line").
func decodeParams(st any, ps []param, what, name string) error {
	for _, p := range ps {
		s := slot(st, p.Key)
		if s.IsZero() {
			if p.Required {
				return fmt.Errorf("scenario: %s%q needs %q", what, name, p.Key)
			}
			continue
		}
		var err error
		switch x := p.Ptr.(type) {
		case *geom.Vec3:
			*x = s.Interface().(*vec).toVec3()
		case *geom.AABB:
			*x = s.Interface().(*jsonBox).toAABB()
		case *geom.Axis:
			err = parseEnum(x, "axis", axisNames, s.String())
		case *geom.EmitDomain:
			*x, err = decodeDomain(s.Interface().(*jsonDomain))
		default:
			reflect.ValueOf(p.Ptr).Elem().Set(s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// jsonAction is the tagged JSON form of an action. Fields are a union
// over the action library; only the ones the type uses are emitted.
type jsonAction struct {
	Type string `json:"type"`

	// Source.
	Rate      int         `json:"rate,omitempty"`
	Pos       *jsonDomain `json:"pos,omitempty"`
	Vel       *jsonDomain `json:"vel,omitempty"`
	Color     *jsonDomain `json:"color,omitempty"`
	UpVec     *vec        `json:"up,omitempty"`
	Size      float64     `json:"size,omitempty"`
	Alpha     float64     `json:"alpha,omitempty"`
	AgeJitter float64     `json:"age_jitter,omitempty"`

	// Forces and shapes.
	G          *vec        `json:"g,omitempty"`
	Domain     *jsonDomain `json:"domain,omitempty"`
	Coeff      float64     `json:"coeff,omitempty"`
	Point      *vec        `json:"point,omitempty"`
	Normal     *vec        `json:"normal,omitempty"`
	Center     *vec        `json:"center,omitempty"`
	Axis       *vec        `json:"axis,omitempty"`
	Elasticity float64     `json:"elasticity,omitempty"`
	Friction   float64     `json:"friction,omitempty"`
	Radius     float64     `json:"radius,omitempty"`
	InnerR     float64     `json:"inner_r,omitempty"`
	OuterR     float64     `json:"outer_r,omitempty"`
	Strength   float64     `json:"strength,omitempty"`
	Epsilon    float64     `json:"epsilon,omitempty"`
	Speed      float64     `json:"speed,omitempty"`
	Falloff    float64     `json:"falloff,omitempty"`
	LookAhead  float64     `json:"look_ahead,omitempty"`
	Accel      *vec        `json:"accel,omitempty"`
	RGB        *vec        `json:"rgb,omitempty"`
	RateF      float64     `json:"rate_per_sec,omitempty"`
	MaxAge     float64     `json:"max_age,omitempty"`
	KillInside bool        `json:"kill_inside,omitempty"`
	AxisName   string      `json:"axis_name,omitempty"`
	Threshold  float64     `json:"threshold,omitempty"`
	Box        *jsonBox    `json:"aabb,omitempty"`
	TriA       *vec        `json:"tri_a,omitempty"`
	TriB       *vec        `json:"tri_b,omitempty"`
	TriC       *vec        `json:"tri_c,omitempty"`
}
