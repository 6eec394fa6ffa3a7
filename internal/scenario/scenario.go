// Package scenario serializes animation scenarios to and from JSON, so
// animations can be described declaratively and run with psanim instead
// of being compiled in. Every action of the library and every emission
// domain has a tagged JSON form; unknown types fail loudly.
package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

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

// encodeDomain writes an emission domain as the object of its row; a
// pointer to a domain is written as the domain it points to, and a nil
// domain as nothing.
func encodeDomain(d geom.EmitDomain) (json.RawMessage, error) {
	if d == nil {
		return nil, nil
	}
	v := reflect.ValueOf(d)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	for _, k := range domainKinds {
		if v.Type() == k.typ {
			p := reflect.New(k.typ)
			p.Elem().Set(v)
			return encodeObject(k.name, k.params(p.Interface()))
		}
	}
	return nil, fmt.Errorf("scenario: cannot encode emission domain %T", d)
}

// decodeDomain reads an emission domain's object through the row its
// type names.
func decodeDomain(raw json.RawMessage) (geom.EmitDomain, error) {
	var f fields
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("scenario: domain: %w", err)
	}
	typ, err := objectType(f)
	if err != nil {
		return nil, err
	}
	for _, k := range domainKinds {
		if typ == k.name {
			p := reflect.New(k.typ)
			if err := decodeParams(f, k.params(p.Interface()), "domain ", typ); err != nil {
				return nil, err
			}
			return p.Elem().Interface().(geom.EmitDomain), nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown emission domain type %q", typ)
}

// encodeObject writes the tagged JSON object of an action or a domain:
// "type" typ, then the keys of the parameters ps in row order. A zero
// number, bool or string and a nil domain are left out; vectors and
// boxes are always written.
func encodeObject(typ string, ps []param) (json.RawMessage, error) {
	// The type names and keys are plain ASCII, quoted alike in Go and JSON.
	b := fmt.Appendf(nil, `{"type":%q`, typ)
	for _, p := range ps {
		var v any
		switch x := p.Ptr.(type) {
		case *geom.Vec3:
			v = fromVec(*x)
		case *geom.AABB:
			v = fromBox(*x)
		case *geom.Axis:
			v = enumName(axisNames, *x)
		case *geom.EmitDomain:
			d, err := encodeDomain(*x)
			if err != nil {
				return nil, err
			}
			if d == nil {
				continue
			}
			v = d
		default:
			v = reflect.ValueOf(p.Ptr).Elem().Interface()
		}
		switch v {
		case 0, 0.0, false, "":
			continue
		}
		j, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		b = fmt.Appendf(b, ",%q:%s", p.Key, j)
	}
	return append(b, '}'), nil
}

// fields are the keys of a decoded action or domain object, each with
// its value's JSON text.
type fields = map[string]json.RawMessage

// objectType removes the "type" key from f and returns its value, ""
// if it has none.
func objectType(f fields) (typ string, err error) {
	if raw, ok := f["type"]; ok {
		delete(f, "type")
		if err = json.Unmarshal(raw, &typ); err != nil {
			err = fmt.Errorf("scenario: type: %w", err)
		}
	}
	return typ, err
}

// decodeParams sets each parameter from the key of fields it names and
// refuses a key no parameter names; what and name name the action or
// domain in the errors ("domain ", "line"). An absent or null key
// leaves the parameter zero and is an error for a required one.
func decodeParams(f fields, ps []param, what, name string) error {
	for _, p := range ps {
		raw, ok := f[p.Key]
		delete(f, p.Key)
		if !ok || string(raw) == "null" {
			if p.Required {
				return fmt.Errorf("scenario: %s%q needs %q", what, name, p.Key)
			}
			continue
		}
		var err error
		switch x := p.Ptr.(type) {
		case *geom.Vec3:
			var j vec
			err = json.Unmarshal(raw, &j)
			*x = j.toVec3()
		case *geom.AABB:
			var j jsonBox
			err = json.Unmarshal(raw, &j)
			*x = j.toAABB()
		case *geom.Axis:
			var s string
			if err = json.Unmarshal(raw, &s); err == nil {
				err = parseEnum(x, "axis", axisNames, s)
			}
		case *geom.EmitDomain:
			*x, err = decodeDomain(raw)
		default:
			err = json.Unmarshal(raw, p.Ptr)
		}
		if err != nil {
			return fmt.Errorf("scenario: %s%q %q: %w", what, name, p.Key, err)
		}
	}
	if len(f) > 0 {
		keys := make([]string, 0, len(f))
		for k := range f {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Errorf("scenario: %s%q has no key %q", what, name, keys[0])
	}
	return nil
}
