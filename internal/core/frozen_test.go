package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"pscluster/internal/obs"
)

var updateFrozen = flag.Bool("update-frozen", false,
	"rewrite testdata/frozen_programs.txt from this tree's runs")

const frozenProgramsFile = "testdata/frozen_programs.txt"

// frozenCell is one configuration whose whole observable behaviour is
// pinned across commits.
type frozenCell struct {
	name  string
	scn   Scenario
	nCalc int
}

// frozenCells is {schedule} × {decomposition} × {LB, where Validate
// allows} × {PipelineFrames} × {nCalc 2, 3} on the mini snow scenario,
// plus one rasterized cell per schedule.
func frozenCells() []frozenCell {
	var cells []frozenCell
	for _, sched := range []Schedule{PerSystemSchedule, BatchedSchedule} {
		for _, decomp := range []DecompMode{DecompSlab, DecompGrid, DecompVoronoi} {
			for _, lb := range []LBMode{StaticLB, DynamicLB, DecentralizedLB} {
				for _, pipe := range []bool{false, true} {
					for _, nCalc := range []int{2, 3} {
						scn := miniSnow(lb, FiniteSpace)
						scn.Schedule, scn.Decomp, scn.PipelineFrames = sched, decomp, pipe
						probe := scn
						if probe.Validate() != nil {
							continue
						}
						cells = append(cells, frozenCell{
							name: fmt.Sprintf("%v/%v/%v/pipeline=%v/%dcalc", sched, decomp, lb, pipe, nCalc),
							scn:  scn, nCalc: nCalc,
						})
					}
				}
			}
		}
		scn := miniSnow(DynamicLB, FiniteSpace)
		scn.Schedule = sched
		scn.Render.Rasterize, scn.Render.Width, scn.Render.Height = true, 64, 48
		cells = append(cells, frozenCell{name: fmt.Sprintf("%v/raster64x48/2calc", sched), scn: scn, nCalc: 2})
	}
	return cells
}

func frozenDigest(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestFrozenPrograms pins every compiled frame program against a file
// generated at an earlier commit: per cell, one digest over everything
// a run reports (the Result, every message event, the metrics snapshot)
// and one over the span and rank timelines. The
// cross-product tests elsewhere compare a commit with itself; this one
// compares it with its parent, so an engine refactor that claims
// bit-neutrality has a file to prove it against. Regenerate (only for a
// change that means to move a program) with -update-frozen.
func TestFrozenPrograms(t *testing.T) {
	var got bytes.Buffer
	for _, cell := range frozenCells() {
		res, prof, err := RunParallelProfiled(cell.scn, testCluster(cell.nCalc), cell.nCalc)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		// A balancing cell that never balances would freeze nothing.
		if cell.scn.LB != StaticLB && res.LBMoved == 0 {
			t.Errorf("%s: no particle was ever moved by balancing", cell.name)
		}
		result := frozenDigest(t, struct {
			Result  *Result
			Msgs    []obs.MsgEvent
			Metrics obs.Snapshot
		}{res, prof.Msgs, prof.Registry.Snapshot()})
		spans := frozenDigest(t, struct {
			Spans []obs.Span
			Ranks []obs.RankTimeline
		}{prof.Spans, prof.Ranks})
		fmt.Fprintf(&got, "%s result=%s spans=%s\n", cell.name, result, spans)
	}
	if *updateFrozen {
		if err := os.WriteFile(frozenProgramsFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frozenProgramsFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells, frozen file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("program moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
