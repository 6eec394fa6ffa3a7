package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"

	"pscluster/internal/actions"
	"pscluster/internal/core"
	"pscluster/internal/geom"
)

// encodeAction converts one library action to its JSON form, through
// its row of actions.Kinds.
func encodeAction(a actions.Action) (*jsonAction, error) {
	if a != nil && actions.Kinds[a.Name()] != nil {
		if b, ps := actions.Kinds[a.Name()](a); b != nil {
			j := &jsonAction{Type: a.Name()}
			return j, encodeParams(j, ps)
		}
	}
	return nil, fmt.Errorf("scenario: cannot encode action %T", a)
}

// decodeAction converts one JSON action back to a library action,
// through the row of actions.Kinds its type names.
func decodeAction(j *jsonAction) (actions.Action, error) {
	row := actions.Kinds[j.Type]
	if row == nil {
		return nil, fmt.Errorf("scenario: unknown action type %q", j.Type)
	}
	a, ps := row(nil)
	if err := decodeParams(j, ps, "", j.Type); err != nil {
		return nil, err
	}
	// The one behaviour the rows cannot express: a bounce plane's normal
	// is unit length, as geom.NewPlane builds it, whatever the document
	// carries.
	if b, ok := a.(*actions.Bounce); ok {
		b.Plane = geom.NewPlane(b.Plane.Point, b.Plane.Normal)
	}
	return a, nil
}

// The JSON names of the scenario's enums, indexed by value. An absent
// name decodes to the zero value.
var (
	axisNames     = []string{geom.AxisX: "x", geom.AxisY: "y", geom.AxisZ: "z"}
	modeNames     = []string{core.InfiniteSpace: "infinite", core.FiniteSpace: "finite"}
	lbNames       = []string{core.StaticLB: "static", core.DynamicLB: "dynamic", core.DecentralizedLB: "decentralized"}
	scheduleNames = []string{core.PerSystemSchedule: "per-system", core.BatchedSchedule: "batched"}
	decompNames   = []string{core.DecompSlab: "slab", core.DecompGrid: "grid", core.DecompVoronoi: "voronoi"}
)

// enumName returns v's name in names, "" for a value it does not list.
func enumName[E ~int](names []string, v E) string {
	if v < 0 || int(v) >= len(names) {
		return ""
	}
	return names[v]
}

// parseEnum sets *v to the value names lists name at; "" is the zero
// value. what names the enum in the error for an unknown name.
func parseEnum[E ~int](v *E, what string, names []string, name string) error {
	for i, n := range names {
		if n == name {
			*v = E(i)
			return nil
		}
	}
	if name != "" {
		return fmt.Errorf("scenario: unknown %s %q", what, name)
	}
	*v = 0
	return nil
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
		Axis:             enumName(axisNames, scn.Axis),
		Mode:             enumName(modeNames, scn.Mode),
		LB:               enumName(lbNames, scn.LB),
		Frames:           scn.Frames,
		DT:               scn.DT,
		Bins:             scn.Bins,
		Ratio:            scn.Ratio,
		LBThreshold:      scn.LBThreshold,
		LBMinBatch:       scn.LBMinBatch,
		GhostCollisions:  scn.GhostCollisions,
		PipelineFrames:   scn.PipelineFrames,
		ExchangeScanWork: scn.ExchangeScanWork,
		DecompStep:       scn.DecompStep,
	}
	if scn.Mode == core.FiniteSpace {
		b := fromBox(scn.Space)
		js.Space = &b
	}
	if scn.Schedule != core.PerSystemSchedule {
		js.Schedule = enumName(scheduleNames, scn.Schedule)
	}
	// The slab default encodes as an absent field so pre-decomposition
	// scenario files round-trip byte-identically.
	if scn.Decomp != core.DecompSlab {
		js.Decomp = enumName(decompNames, scn.Decomp)
	}
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
	scn := core.Scenario{
		Name:             js.Name,
		Frames:           js.Frames,
		DT:               js.DT,
		Bins:             js.Bins,
		Ratio:            js.Ratio,
		LBThreshold:      js.LBThreshold,
		LBMinBatch:       js.LBMinBatch,
		GhostCollisions:  js.GhostCollisions,
		PipelineFrames:   js.PipelineFrames,
		ExchangeScanWork: js.ExchangeScanWork,
		DecompStep:       js.DecompStep,
	}
	if err := cmp.Or(
		parseEnum(&scn.Axis, "axis", axisNames, js.Axis),
		parseEnum(&scn.Mode, "mode", modeNames, js.Mode),
		parseEnum(&scn.LB, "lb mode", lbNames, js.LB),
		parseEnum(&scn.Schedule, "schedule", scheduleNames, js.Schedule),
		parseEnum(&scn.Decomp, "decomposition", decompNames, js.Decomp),
	); err != nil {
		return core.Scenario{}, err
	}
	if scn.Mode == core.FiniteSpace {
		if js.Space == nil {
			return core.Scenario{}, fmt.Errorf("scenario: finite mode needs a space box")
		}
		scn.Space = js.Space.toAABB()
	}
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
