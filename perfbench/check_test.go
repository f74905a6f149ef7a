package main

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"wirelesshart/internal/engine"
	"wirelesshart/internal/fleet"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

// smallNetwork generates a 10-device network at reporting interval is.
func smallNetwork(t *testing.T, is int) *gen.Generated {
	t.Helper()
	p := gen.DefaultParams()
	p.NodesMin, p.NodesMax = 10, 10
	p.ReportingInterval = is
	g, err := gen.Generate(5, is, p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// answer solves s on a fresh engine and returns the answer as a client
// decodes it.
func answer(t *testing.T, s *spec.Spec) *engine.Result {
	t.Helper()
	res, err := engine.New(engine.Config{}).Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out engine.Result
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestOracleMatchesEngine compares the oracle with the engine at short
// and long reporting intervals, with a window failure on the first link.
func TestOracleMatchesEngine(t *testing.T) {
	for _, is := range []int{1, 7, 16, 32} {
		g := smallNetwork(t, is)
		s := *g.Spec
		s.Links = append([]spec.Link(nil), g.Spec.Links...)
		s.Links[0].Failure = &spec.Failure{Kind: "window", FromSlot: 2, ToSlot: 9}
		res := answer(t, &s)
		if err := checkNetwork(&s, res); err != nil {
			t.Fatalf("Is=%d: %v", is, err)
		}
		var worst float64
		for _, p := range res.Paths {
			hops, err := oracleRouteHops(&s, p.Route)
			if err != nil {
				t.Fatal(err)
			}
			o, err := oracleSolve(hops, p.Slots, res.Fup, is, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range p.CycleProbs {
				worst = math.Max(worst, math.Abs(q-o.cycles[i]))
			}
		}
		if worst > 1e-14 {
			t.Errorf("Is=%d: oracle and engine differ by %g", is, worst)
		}
	}
}

// TestCheckerRejectsAlteredAnswers feeds the checker real answers with
// one value altered; each alteration must be caught.
func TestCheckerRejectsAlteredAnswers(t *testing.T) {
	g := smallNetwork(t, 4)
	if err := checkNetwork(g.Spec, answer(t, g.Spec)); err != nil {
		t.Fatalf("unaltered answer rejected: %v", err)
	}
	alter := map[string]func(*engine.Result){
		"cycle probability":   func(r *engine.Result) { r.Paths[0].CycleProbs[1] += 1e-6 },
		"mass between cycles": moveCycleMass,
		"delay point time":    func(r *engine.Result) { r.Paths[1].Delay[0].MS += 10 },
		"delay point mass":    func(r *engine.Result) { r.Paths[1].Delay[2].Prob += 1e-6 },
		"reachability":        func(r *engine.Result) { r.Paths[2].Reachability -= 1e-6 },
		"expected delay":      func(r *engine.Result) { r.Paths[0].ExpectedDelayMS += 0.01 },
		"path utilization":    func(r *engine.Result) { r.Paths[0].Utilization *= 1.001 },
		"route":               func(r *engine.Result) { r.Paths[0].Route[0] = r.Paths[1].Source },
		"overall mean delay":  func(r *engine.Result) { r.OverallMeanDelayMS += 0.01 },
	}
	for name, f := range alter {
		r := answer(t, g.Spec)
		f(r)
		if err := checkNetwork(g.Spec, r); err == nil {
			t.Errorf("altered %s accepted", name)
		}
	}

	typical := answer(t, spec.TypicalSpec())
	if err := checkTypical(typical); err != nil {
		t.Fatalf("typical network: %v", err)
	}
	for i := range typical.Paths {
		if typical.Paths[i].Source == "n10" {
			typical.Paths[i].ExpectedDelayMS += 1
		}
	}
	if checkTypical(typical) == nil {
		t.Error("typical network with n10 E[tau] moved by 1 ms accepted")
	}
}

// moveCycleMass moves mass from cycle 2 to cycle 3 of the first path and
// updates everything derived from the cycles, so that only the comparison
// with the oracle can tell.
func moveCycleMass(r *engine.Result) {
	p := &r.Paths[0]
	p.CycleProbs[1] -= 1e-6
	p.CycleProbs[2] += 1e-6
	var mean float64
	for i := range p.Delay {
		p.Delay[i].Prob = p.CycleProbs[i] / p.Reachability
		mean += p.Delay[i].MS * p.Delay[i].Prob
	}
	r.OverallMeanDelayMS += (mean - p.ExpectedDelayMS) / float64(len(r.Paths))
	p.ExpectedDelayMS = mean
}

// TestCheckerRejectsAlteredFleetRows runs a one-network fleet with the
// workload's failure sweep and alters each checked field of its row.
func TestCheckerRejectsAlteredFleetRows(t *testing.T) {
	p := gen.DefaultParams()
	p.NodesMin, p.NodesMax = 10, 10
	r, err := fleet.New(fleet.Config{Seed: 3, Population: 1, Params: p, Workers: 1, FailureSweep: &fleetSweep})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleetReport(rep, fleetSweep); err != nil {
		t.Fatalf("unaltered report rejected: %v", err)
	}
	alter := map[string]func(*fleet.NetworkResult){
		"overall mean delay":      func(n *fleet.NetworkResult) { n.OverallMeanDelayMS += 0.01 },
		"min reachability":        func(n *fleet.NetworkResult) { n.MinReachability -= 1e-6 },
		"worst failure delay":     func(n *fleet.NetworkResult) { n.WorstFailureDelayMS += 0.01 },
		"mean failure delay":      func(n *fleet.NetworkResult) { n.MeanFailureDelayMS -= 0.01 },
		"worst failure reach":     func(n *fleet.NetworkResult) { n.WorstFailureMinReachability += 1e-6 },
		"failure scenario count":  func(n *fleet.NetworkResult) { n.FailureScenarios-- },
		"network size":            func(n *fleet.NetworkResult) { n.Links++ },
		"error isolated into row": func(n *fleet.NetworkResult) { n.Error = "evaluate: boom" },
	}
	for name, f := range alter {
		row := rep.Networks[0]
		f(&row)
		if err := checkFleetRow(rep.Seed, rep.Params, fleetSweep, row); err == nil {
			t.Errorf("altered %s accepted", name)
		}
	}
}

// TestCheckerRejectsBadSchedules alters the routes, slots and frame of a
// real answer, or the spec they must fit, in ways only the schedule
// properties can tell.
func TestCheckerRejectsBadSchedules(t *testing.T) {
	g := smallNetwork(t, 4)
	res := answer(t, g.Spec)
	paths := func() []scheduledPath {
		out := make([]scheduledPath, len(res.Paths))
		for i, p := range res.Paths {
			out[i] = scheduledPath{p.Source, append([]string(nil), p.Route...), append([]int(nil), p.Slots...)}
		}
		return out
	}
	if err := checkSchedule(g.Spec, res.Fup, paths(), true); err != nil {
		t.Fatalf("unaltered schedule rejected: %v", err)
	}

	// A shortcut to the gateway from a source two or more hops away makes
	// the answer's route longer than the shortest.
	long := -1
	for i, p := range res.Paths {
		if p.Hops >= 2 {
			long = i
			break
		}
	}
	if long < 0 {
		t.Fatal("no path of two hops or more")
	}
	shortcut := *g.Spec
	gw := res.Paths[long].Route[res.Paths[long].Hops]
	shortcut.Links = append(append([]spec.Link(nil), g.Spec.Links...), spec.Link{A: res.Paths[long].Source, B: gw})
	if checkSchedule(&shortcut, res.Fup, paths(), true) == nil {
		t.Error("route longer than the shortest accepted")
	}

	// Every path's first hop in slot 1: more transmissions than channels.
	crowded := paths()
	for i := range crowded {
		crowded[i].slots[0] = 1
	}
	if checkSchedule(g.Spec, res.Fup, crowded, true) == nil {
		t.Error("slot with more transmissions than channels accepted")
	}

	// The relay of a two-hop path transmits its own message in the slot in
	// which it receives the other: one node, two transmissions.
	conflict := paths()
	relay := conflict[long].route[1]
	for i := range conflict {
		if conflict[i].source == relay {
			conflict[i].slots[0] = conflict[long].slots[0]
		}
	}
	if err := checkSchedule(g.Spec, res.Fup, conflict, true); err == nil {
		t.Error("node transmitting twice in one slot accepted")
	}

	if checkSchedule(g.Spec, res.Fup+1, paths(), true) == nil {
		t.Error("frame longer than its used slots and padding accepted")
	}
	if checkSchedule(g.Spec, res.Fup-1, paths(), true) == nil {
		t.Error("frame shorter than its used slots accepted")
	}
}
