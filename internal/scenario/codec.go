package scenario

import (
	"encoding/json"
	"fmt"

	"pscluster/internal/actions"
	"pscluster/internal/core"
	"pscluster/internal/geom"
)

// encodeAction converts one library action to its JSON form.
func encodeAction(a actions.Action) (*jsonAction, error) {
	switch v := a.(type) {
	case *actions.Source:
		pos, err := encodeDomain(v.Pos)
		if err != nil {
			return nil, err
		}
		vel, err := encodeDomain(v.Vel)
		if err != nil {
			return nil, err
		}
		col, err := encodeDomain(v.Color)
		if err != nil {
			return nil, err
		}
		up := fromVec(v.UpVec)
		return &jsonAction{Type: "source", Rate: v.Rate, Pos: pos, Vel: vel, Color: col,
			UpVec: &up, Size: v.Size, Alpha: v.Alpha, AgeJitter: v.AgeJitter}, nil
	case *actions.Gravity:
		g := fromVec(v.G)
		return &jsonAction{Type: "gravity", G: &g}, nil
	case *actions.RandomAccel:
		d, err := encodeDomain(v.Domain)
		if err != nil {
			return nil, err
		}
		return &jsonAction{Type: "random-accel", Domain: d}, nil
	case *actions.Damping:
		return &jsonAction{Type: "damping", Coeff: v.Coeff}, nil
	case *actions.Bounce:
		p, n := fromVec(v.Plane.Point), fromVec(v.Plane.Normal)
		return &jsonAction{Type: "bounce", Point: &p, Normal: &n,
			Elasticity: v.Elasticity, Friction: v.Friction}, nil
	case *actions.BounceSphere:
		c := fromVec(v.Center)
		return &jsonAction{Type: "bounce-sphere", Center: &c, Radius: v.Radius,
			Elasticity: v.Elasticity, Friction: v.Friction}, nil
	case *actions.BounceDisc:
		c, n := fromVec(v.Disc.Center), fromVec(v.Disc.Normal)
		return &jsonAction{Type: "bounce-disc", Center: &c, Normal: &n,
			InnerR: v.Disc.InnerR, OuterR: v.Disc.OuterR,
			Elasticity: v.Elasticity, Friction: v.Friction}, nil
	case *actions.BounceTriangle:
		a3, b3, c3 := fromVec(v.Tri.A), fromVec(v.Tri.B), fromVec(v.Tri.C)
		return &jsonAction{Type: "bounce-triangle", TriA: &a3, TriB: &b3, TriC: &c3,
			Elasticity: v.Elasticity, Friction: v.Friction}, nil
	case *actions.Avoid:
		c := fromVec(v.Center)
		return &jsonAction{Type: "avoid", Center: &c, Radius: v.Radius,
			LookAhead: v.LookAhead, Strength: v.Strength}, nil
	case *actions.Sink:
		d, err := encodeDomain(v.Domain)
		if err != nil {
			return nil, err
		}
		return &jsonAction{Type: "sink", Domain: d, KillInside: v.KillInside}, nil
	case *actions.SinkBelow:
		return &jsonAction{Type: "sink-below", AxisName: axisName(v.Axis), Threshold: v.Threshold}, nil
	case *actions.KillOld:
		return &jsonAction{Type: "kill-old", MaxAge: v.MaxAge}, nil
	case *actions.OrbitPoint:
		c := fromVec(v.Center)
		return &jsonAction{Type: "orbit-point", Center: &c, Strength: v.Strength, Epsilon: v.Epsilon}, nil
	case *actions.Vortex:
		c, ax := fromVec(v.Center), fromVec(v.Axis)
		return &jsonAction{Type: "vortex", Center: &c, Axis: &ax, Strength: v.Strength}, nil
	case *actions.Explosion:
		c := fromVec(v.Center)
		return &jsonAction{Type: "explosion", Center: &c, Speed: v.Speed, Falloff: v.Falloff}, nil
	case *actions.Jet:
		d, err := encodeDomain(v.Region)
		if err != nil {
			return nil, err
		}
		acc := fromVec(v.Accel)
		return &jsonAction{Type: "jet", Domain: d, Accel: &acc}, nil
	case *actions.TargetColor:
		rgb := fromVec(v.Color)
		return &jsonAction{Type: "target-color", RGB: &rgb, RateF: v.Rate}, nil
	case *actions.Fade:
		return &jsonAction{Type: "fade", RateF: v.Rate}, nil
	case *actions.Grow:
		return &jsonAction{Type: "grow", RateF: v.Rate}, nil
	case *actions.OrientToVelocity:
		return &jsonAction{Type: "orient-to-velocity"}, nil
	case *actions.Move:
		return &jsonAction{Type: "move"}, nil
	case *actions.RestrictToBox:
		b := fromBox(v.Box)
		return &jsonAction{Type: "restrict-to-box", Box: &b}, nil
	case *actions.CollideParticles:
		return &jsonAction{Type: "collide-particles", Radius: v.Radius, Elasticity: v.Elasticity}, nil
	case *actions.MatchVelocity:
		return &jsonAction{Type: "match-velocity", Radius: v.Radius, Strength: v.Strength}, nil
	default:
		return nil, fmt.Errorf("scenario: cannot encode action %T", a)
	}
}

// decodeAction converts one JSON action back to a library action.
func decodeAction(j *jsonAction) (actions.Action, error) {
	optVec := func(v *vec) geom.Vec3 {
		if v == nil {
			return geom.Vec3{}
		}
		return v.toVec3()
	}
	switch j.Type {
	case "source":
		pos, err := decodeDomain(j.Pos)
		if err != nil {
			return nil, err
		}
		if pos == nil {
			return nil, fmt.Errorf("scenario: source needs a pos domain")
		}
		vel, err := decodeDomain(j.Vel)
		if err != nil {
			return nil, err
		}
		col, err := decodeDomain(j.Color)
		if err != nil {
			return nil, err
		}
		return &actions.Source{Rate: j.Rate, Pos: pos, Vel: vel, Color: col,
			UpVec: optVec(j.UpVec), Size: j.Size, Alpha: j.Alpha, AgeJitter: j.AgeJitter}, nil
	case "gravity":
		return &actions.Gravity{G: optVec(j.G)}, nil
	case "random-accel":
		d, err := decodeDomain(j.Domain)
		if err != nil {
			return nil, err
		}
		if d == nil {
			return nil, fmt.Errorf("scenario: random-accel needs a domain")
		}
		return &actions.RandomAccel{Domain: d}, nil
	case "damping":
		return &actions.Damping{Coeff: j.Coeff}, nil
	case "bounce":
		return &actions.Bounce{
			Plane:      geom.NewPlane(optVec(j.Point), optVec(j.Normal)),
			Elasticity: j.Elasticity, Friction: j.Friction}, nil
	case "bounce-sphere":
		return &actions.BounceSphere{Center: optVec(j.Center), Radius: j.Radius,
			Elasticity: j.Elasticity, Friction: j.Friction}, nil
	case "bounce-disc":
		return &actions.BounceDisc{
			Disc: geom.DiscDomain{Center: optVec(j.Center), Normal: optVec(j.Normal),
				InnerR: j.InnerR, OuterR: j.OuterR},
			Elasticity: j.Elasticity, Friction: j.Friction}, nil
	case "bounce-triangle":
		return &actions.BounceTriangle{
			Tri:        geom.TriangleDomain{A: optVec(j.TriA), B: optVec(j.TriB), C: optVec(j.TriC)},
			Elasticity: j.Elasticity, Friction: j.Friction}, nil
	case "avoid":
		return &actions.Avoid{Center: optVec(j.Center), Radius: j.Radius,
			LookAhead: j.LookAhead, Strength: j.Strength}, nil
	case "sink":
		d, err := decodeDomain(j.Domain)
		if err != nil {
			return nil, err
		}
		if d == nil {
			return nil, fmt.Errorf("scenario: sink needs a domain")
		}
		return &actions.Sink{Domain: d, KillInside: j.KillInside}, nil
	case "sink-below":
		ax, err := parseAxis(j.AxisName)
		if err != nil {
			return nil, err
		}
		return &actions.SinkBelow{Axis: ax, Threshold: j.Threshold}, nil
	case "kill-old":
		return &actions.KillOld{MaxAge: j.MaxAge}, nil
	case "orbit-point":
		return &actions.OrbitPoint{Center: optVec(j.Center), Strength: j.Strength, Epsilon: j.Epsilon}, nil
	case "vortex":
		return &actions.Vortex{Center: optVec(j.Center), Axis: optVec(j.Axis), Strength: j.Strength}, nil
	case "explosion":
		return &actions.Explosion{Center: optVec(j.Center), Speed: j.Speed, Falloff: j.Falloff}, nil
	case "jet":
		d, err := decodeDomain(j.Domain)
		if err != nil {
			return nil, err
		}
		if d == nil {
			return nil, fmt.Errorf("scenario: jet needs a domain")
		}
		return &actions.Jet{Region: d, Accel: optVec(j.Accel)}, nil
	case "target-color":
		return &actions.TargetColor{Color: optVec(j.RGB), Rate: j.RateF}, nil
	case "fade":
		return &actions.Fade{Rate: j.RateF}, nil
	case "grow":
		return &actions.Grow{Rate: j.RateF}, nil
	case "orient-to-velocity":
		return &actions.OrientToVelocity{}, nil
	case "move":
		return &actions.Move{}, nil
	case "restrict-to-box":
		if j.Box == nil {
			return nil, fmt.Errorf("scenario: restrict-to-box needs aabb")
		}
		return &actions.RestrictToBox{Box: j.Box.toAABB()}, nil
	case "collide-particles":
		return &actions.CollideParticles{Radius: j.Radius, Elasticity: j.Elasticity}, nil
	case "match-velocity":
		return &actions.MatchVelocity{Radius: j.Radius, Strength: j.Strength}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown action type %q", j.Type)
	}
}

// jsonSystem is the JSON form of one particle system.
type jsonSystem struct {
	Name    string        `json:"name"`
	Seed    uint64        `json:"seed"`
	Actions []*jsonAction `json:"actions"`
}

// jsonScript is the JSON form of a one-shot steering entry.
type jsonScript struct {
	Frame  int         `json:"frame"`
	System int         `json:"system"`
	Action *jsonAction `json:"action"`
}

// jsonScenario is the JSON form of a full scenario.
type jsonScenario struct {
	Name             string       `json:"name"`
	Systems          []jsonSystem `json:"systems"`
	Script           []jsonScript `json:"script,omitempty"`
	Axis             string       `json:"axis"`
	Space            *jsonBox     `json:"space,omitempty"`
	Mode             string       `json:"mode"` // "finite" | "infinite"
	Frames           int          `json:"frames"`
	DT               float64      `json:"dt"`
	Bins             int          `json:"bins,omitempty"`
	Ratio            float64      `json:"ratio,omitempty"`
	LB               string       `json:"lb"` // "static" | "dynamic" | "decentralized"
	LBThreshold      float64      `json:"lb_threshold,omitempty"`
	LBMinBatch       int          `json:"lb_min_batch,omitempty"`
	Schedule         string       `json:"schedule,omitempty"` // "per-system" | "batched"
	Decomp           string       `json:"decomp,omitempty"`   // "slab" (default) | "grid" | "voronoi"
	DecompStep       float64      `json:"decomp_step,omitempty"`
	GhostCollisions  bool         `json:"ghost_collisions,omitempty"`
	PipelineFrames   bool         `json:"pipeline_frames,omitempty"`
	ExchangeScanWork float64      `json:"exchange_scan_work,omitempty"`
}

// Encode renders a scenario as indented JSON.
func Encode(scn core.Scenario) ([]byte, error) {
	js := jsonScenario{
		Name:             scn.Name,
		Axis:             axisName(scn.Axis),
		Frames:           scn.Frames,
		DT:               scn.DT,
		Bins:             scn.Bins,
		Ratio:            scn.Ratio,
		LBThreshold:      scn.LBThreshold,
		LBMinBatch:       scn.LBMinBatch,
		GhostCollisions:  scn.GhostCollisions,
		PipelineFrames:   scn.PipelineFrames,
		ExchangeScanWork: scn.ExchangeScanWork,
	}
	if scn.Mode == core.FiniteSpace {
		js.Mode = "finite"
		b := fromBox(scn.Space)
		js.Space = &b
	} else {
		js.Mode = "infinite"
	}
	switch scn.LB {
	case core.StaticLB:
		js.LB = "static"
	case core.DynamicLB:
		js.LB = "dynamic"
	case core.DecentralizedLB:
		js.LB = "decentralized"
	}
	if scn.Schedule == core.BatchedSchedule {
		js.Schedule = "batched"
	}
	// The slab default encodes as an absent field so pre-decomposition
	// scenario files round-trip byte-identically.
	switch scn.Decomp {
	case core.DecompGrid:
		js.Decomp = "grid"
	case core.DecompVoronoi:
		js.Decomp = "voronoi"
	}
	js.DecompStep = scn.DecompStep
	for _, sys := range scn.Systems {
		jsys := jsonSystem{Name: sys.Name, Seed: sys.Seed}
		for _, a := range sys.Actions {
			ja, err := encodeAction(a)
			if err != nil {
				return nil, err
			}
			jsys.Actions = append(jsys.Actions, ja)
		}
		js.Systems = append(js.Systems, jsys)
	}
	for _, e := range scn.Script {
		ja, err := encodeAction(e.Action)
		if err != nil {
			return nil, err
		}
		js.Script = append(js.Script, jsonScript{Frame: e.Frame, System: e.System, Action: ja})
	}
	return json.MarshalIndent(js, "", "  ")
}

// Decode parses a scenario from JSON.
func Decode(data []byte) (core.Scenario, error) {
	var js jsonScenario
	if err := json.Unmarshal(data, &js); err != nil {
		return core.Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	axis, err := parseAxis(js.Axis)
	if err != nil {
		return core.Scenario{}, err
	}
	scn := core.Scenario{
		Name:             js.Name,
		Axis:             axis,
		Frames:           js.Frames,
		DT:               js.DT,
		Bins:             js.Bins,
		Ratio:            js.Ratio,
		LBThreshold:      js.LBThreshold,
		LBMinBatch:       js.LBMinBatch,
		GhostCollisions:  js.GhostCollisions,
		PipelineFrames:   js.PipelineFrames,
		ExchangeScanWork: js.ExchangeScanWork,
	}
	switch js.Mode {
	case "finite":
		scn.Mode = core.FiniteSpace
		if js.Space == nil {
			return core.Scenario{}, fmt.Errorf("scenario: finite mode needs a space box")
		}
		scn.Space = js.Space.toAABB()
	case "infinite", "":
		scn.Mode = core.InfiniteSpace
	default:
		return core.Scenario{}, fmt.Errorf("scenario: unknown mode %q", js.Mode)
	}
	switch js.LB {
	case "static", "":
		scn.LB = core.StaticLB
	case "dynamic":
		scn.LB = core.DynamicLB
	case "decentralized":
		scn.LB = core.DecentralizedLB
	default:
		return core.Scenario{}, fmt.Errorf("scenario: unknown lb mode %q", js.LB)
	}
	switch js.Schedule {
	case "", "per-system":
		scn.Schedule = core.PerSystemSchedule
	case "batched":
		scn.Schedule = core.BatchedSchedule
	default:
		return core.Scenario{}, fmt.Errorf("scenario: unknown schedule %q", js.Schedule)
	}
	switch js.Decomp {
	case "", "slab":
		scn.Decomp = core.DecompSlab
	case "grid":
		scn.Decomp = core.DecompGrid
	case "voronoi":
		scn.Decomp = core.DecompVoronoi
	default:
		return core.Scenario{}, fmt.Errorf("scenario: unknown decomposition %q", js.Decomp)
	}
	scn.DecompStep = js.DecompStep
	for _, jsys := range js.Systems {
		sys := core.System{Name: jsys.Name, Seed: jsys.Seed}
		for _, ja := range jsys.Actions {
			a, err := decodeAction(ja)
			if err != nil {
				return core.Scenario{}, err
			}
			sys.Actions = append(sys.Actions, a)
		}
		scn.Systems = append(scn.Systems, sys)
	}
	for _, je := range js.Script {
		if je.Action == nil {
			return core.Scenario{}, fmt.Errorf("scenario: script entry without an action")
		}
		a, err := decodeAction(je.Action)
		if err != nil {
			return core.Scenario{}, err
		}
		scn.Script = append(scn.Script, core.ScriptEntry{Frame: je.Frame, System: je.System, Action: a})
	}
	return scn, nil
}
