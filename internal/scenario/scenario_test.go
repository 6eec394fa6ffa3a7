package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/geom"
)

// fullScenario exercises every action and domain type in one scenario.
func fullScenario() core.Scenario {
	return core.Scenario{
		Name: "kitchen-sink",
		Systems: []core.System{{
			Name: "everything",
			Seed: 77,
			Actions: []actions.Action{
				&actions.Source{
					Rate:  100,
					Pos:   geom.BoxDomain{B: geom.Box(geom.V(-1, -1, -1), geom.V(1, 1, 1))},
					Vel:   geom.ConeDomain{Apex: geom.V(0, 0, 0), Base: geom.V(0, 5, 0), Radius: 2},
					Color: geom.PointDomain{P: geom.V(1, 0.5, 0)},
					UpVec: geom.V(0, 1, 0), Size: 0.4, Alpha: 0.9, AgeJitter: 0.5,
				},
				&actions.Gravity{G: geom.V(0, -9.8, 0)},
				&actions.RandomAccel{Domain: geom.SphereDomain{Center: geom.V(1, 2, 3), InnerR: 0.5, OuterR: 2}},
				&actions.Damping{Coeff: 0.3},
				&actions.Bounce{Plane: geom.NewPlane(geom.V(0, -2, 0), geom.V(0, 1, 0)),
					Elasticity: 0.6, Friction: 0.1},
				&actions.BounceSphere{Center: geom.V(3, 0, 0), Radius: 1, Elasticity: 0.5},
				&actions.BounceDisc{Disc: geom.DiscDomain{Center: geom.V(0, 1, 0),
					Normal: geom.V(0, 1, 0), InnerR: 0.2, OuterR: 3}, Elasticity: 0.4},
				&actions.BounceTriangle{Tri: geom.TriangleDomain{
					A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 0, 1)}, Elasticity: 0.7},
				&actions.Avoid{Center: geom.V(5, 5, 5), Radius: 2, LookAhead: 4, Strength: 10},
				&actions.Sink{Domain: geom.CylinderDomain{A: geom.V(0, 0, 0), B: geom.V(0, 9, 0), Radius: 4},
					KillInside: false},
				&actions.SinkBelow{Axis: geom.AxisY, Threshold: -5},
				&actions.KillOld{MaxAge: 4},
				&actions.OrbitPoint{Center: geom.V(0, 3, 0), Strength: 2, Epsilon: 0.1},
				&actions.Vortex{Center: geom.V(0, 0, 0), Axis: geom.V(0, 1, 0), Strength: 3},
				&actions.Explosion{Center: geom.V(1, 1, 1), Speed: 50, Falloff: 2},
				&actions.Jet{Region: geom.LineDomain{A: geom.V(0, 0, 0), B: geom.V(1, 1, 1)},
					Accel: geom.V(0, 20, 0)},
				&actions.TargetColor{Color: geom.V(0, 0, 1), Rate: 0.5},
				&actions.Fade{Rate: 0.2},
				&actions.Grow{Rate: 0.1},
				&actions.OrientToVelocity{},
				&actions.Move{},
				&actions.RestrictToBox{Box: geom.Box(geom.V(-9, -9, -9), geom.V(9, 9, 9))},
				&actions.CollideParticles{Radius: 0.5, Elasticity: 0.9},
				&actions.MatchVelocity{Radius: 1, Strength: 0.5},
			},
		}},
		Axis:             geom.AxisY,
		Space:            geom.Box(geom.V(-10, -10, -10), geom.V(10, 10, 10)),
		Mode:             core.FiniteSpace,
		Frames:           7,
		DT:               0.05,
		Bins:             8,
		Ratio:            2,
		LB:               core.DynamicLB,
		LBThreshold:      0.2,
		LBMinBatch:       10,
		Schedule:         core.BatchedSchedule,
		GhostCollisions:  true,
		ExchangeScanWork: 1.5,
		Decomp:           core.DecompGrid,
		DecompStep:       0.1,
		Script: []core.ScriptEntry{
			{Frame: 3, System: 0, Action: &actions.Explosion{
				Center: geom.V(0, 5, 0), Speed: 100, Falloff: 1}},
		},
	}
}

func TestRoundTripFullScenario(t *testing.T) {
	scn := fullScenario()
	data, err := Encode(scn)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	if !reflect.DeepEqual(scn, got) {
		// Locate the first differing action for a usable message.
		for i := range scn.Systems[0].Actions {
			a, b := scn.Systems[0].Actions[i], got.Systems[0].Actions[i]
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("action %d (%s) differs:\nwant %#v\ngot  %#v", i, a.Name(), a, b)
			}
		}
		t.Fatalf("scenario metadata differs:\nwant %+v\ngot  %+v", scn, got)
	}

	// Files written before the store-layout and fusion switches and the
	// compute and render widths were retired may still carry their keys;
	// all were bit-neutral, so such a file decodes to the same scenario.
	// (The keys are spelled in halves so a tree-wide grep for the retired
	// names stays empty.)
	legacy := bytes.Replace(data, []byte("{"),
		[]byte(`{"aos_`+`store": true, "un`+`fused": true, "work`+`ers": 2, "render_`+`workers": 3,`), 1)
	got, err = Decode(legacy)
	if err != nil {
		t.Fatalf("legacy keys: %v", err)
	}
	if !reflect.DeepEqual(scn, got) {
		t.Fatalf("legacy keys changed the scenario:\nwant %+v\ngot  %+v", scn, got)
	}
}

// A store action's radius survives the codec as written — a zero one
// is dropped from the document and decodes back to zero — so a file
// without it reaches Validate, which rejects it before the neighbor
// grid can divide by it.
func TestRoundTripKeepsStoreActionRadiusForValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		action actions.Action
		valid  bool
	}{
		{"collide", &actions.CollideParticles{Radius: 0.5, Elasticity: 0.9}, true},
		{"collide-no-radius", &actions.CollideParticles{Elasticity: 0.9}, false},
		{"collide-negative", &actions.CollideParticles{Radius: -1, Elasticity: 0.9}, false},
		{"match", &actions.MatchVelocity{Radius: 1, Strength: 0.5}, true},
		{"match-no-radius", &actions.MatchVelocity{Strength: 0.5}, false},
	} {
		scn := fullScenario()
		scn.Systems[0].Actions = []actions.Action{scn.Systems[0].Actions[0], tc.action}
		data, err := Encode(scn)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, data)
		}
		if !reflect.DeepEqual(got.Systems[0].Actions[1], tc.action) {
			t.Errorf("%s: decoded %#v, want %#v", tc.name, got.Systems[0].Actions[1], tc.action)
		}
		if err := got.Validate(); (err == nil) != tc.valid {
			t.Errorf("%s: Validate = %v, want valid %v", tc.name, err, tc.valid)
		}
	}
}

// To the codec a rate is a plain number, so a negative one decodes;
// Validate refuses it, naming the system and the action, before an
// engine's generator can panic on it.
func TestDecodedNegativeRateFailsValidate(t *testing.T) {
	data := `{"mode":"infinite","frames":1,"dt":0.1,"systems":[{"actions":[
		{"type":"source","rate":-5,"pos":{"type":"point","point":[0,0,0]}},{"type":"move"}]}]}`
	scn, err := Decode([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if src, ok := scn.Systems[0].Actions[0].(*actions.Source); !ok || src.Rate != -5 {
		t.Fatalf("decoded %#v, want a source of rate -5", scn.Systems[0].Actions[0])
	}
	if err := scn.Validate(); err == nil || !strings.Contains(err.Error(), `system 0 action "source"`) {
		t.Fatalf("Validate = %v, want an error naming system 0's source", err)
	}
}

func TestRoundTripProducesSameAnimation(t *testing.T) {
	// The decoded scenario must run to the same frames as the original.
	scn := fullScenario()
	// Drop the store actions so the sequential runs are cheap.
	scn.Systems[0].Actions = scn.Systems[0].Actions[:21]
	scn.Schedule = core.PerSystemSchedule
	scn.CollectParticles = true

	data, err := Encode(scn)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	decoded.CollectParticles = true

	a, err := core.RunSequential(scn, testNode(), testCompiler())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.RunSequential(decoded, testNode(), testCompiler())
	if err != nil {
		t.Fatal(err)
	}
	for f := range a.FrameChecksums {
		if a.FrameChecksums[f] != b.FrameChecksums[f] {
			t.Fatalf("frame %d differs after round trip", f)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"unknown mode":   `{"mode":"weird","systems":[]}`,
		"unknown lb":     `{"mode":"infinite","lb":"magic"}`,
		"unknown axis":   `{"mode":"infinite","axis":"w"}`,
		"unknown sched":  `{"mode":"infinite","schedule":"chaotic"}`,
		"unknown decomp": `{"mode":"infinite","decomp":"fractal"}`,
		"missing space":  `{"mode":"finite"}`,
		"unknown action": `{"mode":"infinite","systems":[{"actions":[{"type":"teleport"}]}]}`,
		"unknown domain": `{"mode":"infinite","systems":[{"actions":[{"type":"sink","domain":{"type":"blob"}}]}]}`,
		"source no pos":  `{"mode":"infinite","systems":[{"actions":[{"type":"source","rate":5}]}]}`,
	}
	for name, data := range cases {
		if _, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestEncodeIsReadableJSON(t *testing.T) {
	data, err := Encode(fullScenario())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`"type": "source"`, `"type": "gravity"`, `"lb": "dynamic"`,
		`"schedule": "batched"`, `"axis": "y"`, `"ghost_collisions": true`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded JSON missing %q", want)
		}
	}
}

func TestDomainRoundTrips(t *testing.T) {
	domains := []geom.EmitDomain{
		geom.PointDomain{P: geom.V(1, 2, 3)},
		geom.LineDomain{A: geom.V(0, 0, 0), B: geom.V(1, 1, 1)},
		geom.BoxDomain{B: geom.Box(geom.V(-1, 0, 0), geom.V(1, 2, 3))},
		geom.SphereDomain{Center: geom.V(5, 5, 5), InnerR: 1, OuterR: 2},
		geom.DiscDomain{Center: geom.V(0, 1, 0), Normal: geom.V(0, 0, 1), OuterR: 4},
		geom.CylinderDomain{A: geom.V(0, 0, 0), B: geom.V(0, 3, 0), Radius: 1},
		geom.ConeDomain{Apex: geom.V(0, 0, 0), Base: geom.V(0, 2, 0), Radius: 1},
		geom.TriangleDomain{A: geom.V(0, 0, 0), B: geom.V(1, 0, 0), C: geom.V(0, 1, 0)},
	}
	for _, d := range domains {
		enc, err := encodeDomain(d)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decodeDomain(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, dec) {
			t.Errorf("domain %T did not round-trip:\nwant %#v\ngot  %#v", d, d, dec)
		}
	}
}

func TestNilDomainRoundTrips(t *testing.T) {
	enc, err := encodeDomain(nil)
	if err != nil || enc != nil {
		t.Fatalf("nil encode: %v %v", enc, err)
	}
	dec, err := decodeDomain(nil)
	if err != nil || dec != nil {
		t.Fatalf("nil decode: %v %v", dec, err)
	}
}

func testNode() cluster.NodeType     { return cluster.TypeB }
func testCompiler() cluster.Compiler { return cluster.GCC }

// Every exported field of every action kind, filled with a value
// distinct from the others, survives Encode and Decode: a field its
// actions.Kinds row forgets decodes to zero and fails here by name.
func TestKindsRoundTripEveryField(t *testing.T) {
	names := make([]string, 0, len(actions.Kinds))
	for name := range actions.Kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	n := 0.0
	for _, name := range names {
		want, _ := actions.Kinds[name](nil)
		fillFields(t, reflect.ValueOf(want).Elem(), &n)
		if b, ok := want.(*actions.Bounce); ok {
			b.Plane.Normal = geom.V(0, 0, 1) // decode keeps a bounce normal unit length
		}
		j, err := encodeAction(want)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		var back jsonAction
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got, err := decodeAction(&back)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s did not round-trip:\nwant %#v\ngot  %#v\n%s", name, want, got, data)
		}
	}
}

// fillFields sets every exported field under v to a value distinct from
// the others, counting up from *n.
func fillFields(t *testing.T, v reflect.Value, n *float64) {
	switch v.Type() {
	case reflect.TypeFor[geom.Axis]():
		v.Set(reflect.ValueOf(geom.AxisZ))
		return
	case reflect.TypeFor[geom.EmitDomain]():
		*n++
		v.Set(reflect.ValueOf(geom.PointDomain{P: geom.V(*n, *n+0.25, *n+0.5)}))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillFields(t, v.Field(i), n)
			}
		}
	case reflect.Float64:
		*n++
		v.SetFloat(*n)
	case reflect.Int:
		*n++
		v.SetInt(int64(*n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("cannot fill a field of type %s", v.Type())
	}
}
