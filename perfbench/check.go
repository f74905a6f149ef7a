package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"wirelesshart/internal/engine"
	"wirelesshart/internal/fleet"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// Tolerances of the checks. Probabilities must match the oracle to 1e-9;
// the solver and the oracle sum the same products in a different order,
// which moves the last few bits only.
const (
	probTol  = 1e-9
	delayTol = 1e-9 // relative, for millisecond quantities
)

func closeProb(a, b float64) bool { return math.Abs(a-b) <= probTol }

func closeMS(a, b float64) bool {
	return math.Abs(a-b) <= delayTol*math.Max(1, math.Abs(b))
}

// checkPath checks one path of an HTTP answer for scenario s, solved with
// frame size fup, against the oracle and against the properties every
// answer must have.
func checkPath(s *spec.Spec, fup int, p engine.PathResult) error {
	if len(p.Route) != p.Hops+1 || len(p.Slots) != p.Hops || p.Hops < 1 {
		return fmt.Errorf("path %s: route %v and slots %v disagree with %d hops", p.Source, p.Route, p.Slots, p.Hops)
	}
	if p.Route[0] != p.Source {
		return fmt.Errorf("path %s: route starts at %s", p.Source, p.Route[0])
	}
	if !isGateway(s, p.Route[len(p.Route)-1]) {
		return fmt.Errorf("path %s: route %v does not end at the gateway", p.Source, p.Route)
	}
	hops, err := oracleRouteHops(s, p.Route)
	if err != nil {
		return fmt.Errorf("path %s: %w", p.Source, err)
	}
	want, err := oracleSolve(hops, p.Slots, fup, specIs(s), s.TTL)
	if err != nil {
		return fmt.Errorf("path %s: %w", p.Source, err)
	}
	return comparePath(p, want, specFdown(s, fup))
}

// comparePath compares a path answer with the oracle's solution.
func comparePath(p engine.PathResult, want oracleResult, fdown int) error {
	if len(p.CycleProbs) != len(want.cycles) {
		return fmt.Errorf("path %s: %d cycle probabilities, oracle has %d", p.Source, len(p.CycleProbs), len(want.cycles))
	}
	var sum float64
	for i, q := range p.CycleProbs {
		if !closeProb(q, want.cycles[i]) {
			return fmt.Errorf("path %s: cycle %d probability %v, oracle %v", p.Source, i+1, q, want.cycles[i])
		}
		sum += q
	}
	if !closeProb(p.Reachability, sum) {
		return fmt.Errorf("path %s: reachability %v is not the cycle sum %v", p.Source, p.Reachability, sum)
	}
	if !closeProb(p.Utilization, want.utilization()) {
		return fmt.Errorf("path %s: utilization %v, oracle %v", p.Source, p.Utilization, want.utilization())
	}
	if sum <= 0 {
		if len(p.Delay) != 0 || p.ExpectedDelayMS != 0 {
			return fmt.Errorf("path %s: delivers nothing but reports a delay", p.Source)
		}
		return nil
	}
	// The delay PMF: one point per cycle at (a_i + (i-1)*Fdown)*10 ms
	// with mass p_i/R, summing to 1, whose mean is E[tau].
	if len(p.Delay) != len(want.cycles) {
		return fmt.Errorf("path %s: %d delay points for %d cycles", p.Source, len(p.Delay), len(want.cycles))
	}
	var total, mean float64
	for i, d := range p.Delay {
		if !closeMS(d.MS, want.delayMS(i, fdown)) {
			return fmt.Errorf("path %s: delay point %d at %v ms, want %v", p.Source, i+1, d.MS, want.delayMS(i, fdown))
		}
		if !closeProb(d.Prob, p.CycleProbs[i]/sum) {
			return fmt.Errorf("path %s: delay point %d has mass %v, want %v", p.Source, i+1, d.Prob, p.CycleProbs[i]/sum)
		}
		total += d.Prob
		mean += d.MS * d.Prob
	}
	if !closeProb(total, 1) {
		return fmt.Errorf("path %s: delay PMF sums to %v", p.Source, total)
	}
	if !closeMS(p.ExpectedDelayMS, mean) {
		return fmt.Errorf("path %s: expectedDelayMS %v is not the PMF mean %v", p.Source, p.ExpectedDelayMS, mean)
	}
	return nil
}

func isGateway(s *spec.Spec, name string) bool {
	for _, n := range s.Nodes {
		if n.Name == name {
			return n.Kind == "gateway"
		}
	}
	return false
}

// reportingSources lists the sources a scenario reports from, sorted.
func reportingSources(s *spec.Spec) []string {
	out := append([]string(nil), s.Sources...)
	if len(out) == 0 {
		for _, n := range s.Nodes {
			if n.Kind == "" || n.Kind == "field-device" {
				out = append(out, n.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkNetwork checks a /v1/network answer for scenario s.
func checkNetwork(s *spec.Spec, r *engine.Result) error {
	if r.Is != specIs(s) {
		return fmt.Errorf("network: Is %d, spec says %d", r.Is, specIs(s))
	}
	srcs := reportingSources(s)
	if len(r.Paths) != len(srcs) {
		return fmt.Errorf("network: %d paths for %d sources", len(r.Paths), len(srcs))
	}
	paths := make([]scheduledPath, len(r.Paths))
	for i, p := range r.Paths {
		paths[i] = scheduledPath{source: p.Source, route: p.Route, slots: p.Slots}
	}
	if err := checkSchedule(s, r.Fup, paths, len(s.Sources) == 0); err != nil {
		return fmt.Errorf("network: %w", err)
	}
	var delaySum, util, reachSum float64
	alive := 0
	for i, p := range r.Paths {
		if p.Source != srcs[i] {
			return fmt.Errorf("network: path %d is %s, want %s", i, p.Source, srcs[i])
		}
		if err := checkPath(s, r.Fup, p); err != nil {
			return err
		}
		if p.Reachability > 0 {
			delaySum += p.ExpectedDelayMS
			alive++
		}
		util += p.Utilization
		reachSum += p.Reachability
	}
	want := 0.0
	if alive > 0 {
		want = delaySum / float64(alive)
	}
	if !closeMS(r.OverallMeanDelayMS, want) {
		return fmt.Errorf("network: overallMeanDelayMS %v is not the mean E[tau] %v of delivering paths", r.OverallMeanDelayMS, want)
	}
	if !closeProb(r.Utilization, util) {
		return fmt.Errorf("network: utilization %v is not the path sum %v", r.Utilization, util)
	}
	var mass float64
	for _, d := range r.OverallDelay {
		mass += d.Prob
	}
	if !closeProb(mass, reachSum/float64(len(r.Paths))) {
		return fmt.Errorf("network: overall delay mass %v is not the mean reachability %v", mass, reachSum/float64(len(r.Paths)))
	}
	return nil
}

// checkEvaluate checks a /v1/evaluate answer for one source of scenario s.
func checkEvaluate(s *spec.Spec, source string, fup int, p engine.PathResult) error {
	if p.Source != source {
		return fmt.Errorf("evaluate: answered for %s, asked for %s", p.Source, source)
	}
	if err := checkSchedule(s, fup, []scheduledPath{{p.Source, p.Route, p.Slots}}, false); err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	return checkPath(s, fup, p)
}

// scheduledPath is one path's route (node names, source first) and the
// frame slots of its hops.
type scheduledPath struct {
	source string
	route  []string
	slots  []int
}

// bfsDepths is each node's hop distance to the nearest gateway over the
// spec's declared links.
func bfsDepths(s *spec.Spec) map[string]int {
	adj := map[string][]string{}
	for _, l := range s.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	depth := map[string]int{}
	var queue []string
	for _, n := range s.Nodes {
		if n.Kind == "gateway" {
			depth[n.Name] = 0
			queue = append(queue, n.Name)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if _, ok := depth[w]; !ok {
				depth[w] = depth[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return depth
}

// checkSchedule checks routes and slots against what the method requires,
// computed from the spec alone rather than taken from the program: every
// route is a shortest route to the gateway (uplink graph routing), no
// slot holds more transmissions than there are channels or two
// transmissions that share a node, and every slot lies in the frame.
// When paths cover every source, a policy-generated frame must end with
// its last used slot plus the spec's idle padding.
func checkSchedule(s *spec.Spec, fup int, paths []scheduledPath, complete bool) error {
	depth := bfsDepths(s)
	channels := max(s.Schedule.Channels, 1)
	type transmission struct{ from, to string }
	bySlot := map[int][]transmission{}
	maxSlot := 0
	for _, p := range paths {
		d, ok := depth[p.source]
		if !ok {
			return fmt.Errorf("path %s: the source cannot reach a gateway", p.source)
		}
		if len(p.route)-1 != d || len(p.slots) != d {
			return fmt.Errorf("path %s: route %v with %d slots, the shortest route has %d hops", p.source, p.route, len(p.slots), d)
		}
		for h, slot := range p.slots {
			if slot < 1 || slot > fup {
				return fmt.Errorf("path %s: slot %d outside the %d-slot frame", p.source, slot, fup)
			}
			bySlot[slot] = append(bySlot[slot], transmission{p.route[h], p.route[h+1]})
			maxSlot = max(maxSlot, slot)
		}
	}
	slots := make([]int, 0, len(bySlot))
	for slot := range bySlot {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		txs := bySlot[slot]
		if len(txs) > channels {
			return fmt.Errorf("slot %d holds %d transmissions on %d channels", slot, len(txs), channels)
		}
		busy := map[string]bool{}
		for _, t := range txs {
			if busy[t.from] || busy[t.to] {
				return fmt.Errorf("slot %d has two transmissions at one node (%s-%s)", slot, t.from, t.to)
			}
			busy[t.from], busy[t.to] = true, true
		}
	}
	if complete && s.Schedule.Policy != "" && fup != maxSlot+s.Schedule.ExtraIdle {
		return fmt.Errorf("Fup %d, but the last used slot is %d and %d idle slots pad the frame", fup, maxSlot, s.Schedule.ExtraIdle)
	}
	return nil
}

// checkTypical pins the paper's anchor on the typical network: the n10
// path's expected delay is 421 ms under schedule eta_a (Section VI-A).
func checkTypical(r *engine.Result) error {
	p, ok := r.Path("n10")
	if !ok {
		return errors.New("typical network: no n10 path")
	}
	if math.Abs(p.ExpectedDelayMS-421) > 0.5 {
		return fmt.Errorf("typical network: n10 E[tau] = %v ms, paper 421 ms", p.ExpectedDelayMS)
	}
	return nil
}

// oracleNetwork is the oracle's view of one generated network: its
// per-path solutions with and without each single-link window failure.
type oracleNetwork struct {
	paths []oracleResult
	fdown int
}

// overallMeanDelay is E[Gamma]: the mean E[tau] over delivering paths.
func (o oracleNetwork) overallMeanDelay() float64 {
	var sum float64
	alive := 0
	for _, r := range o.paths {
		if r.reach() > 0 {
			sum += r.meanDelayMS(o.fdown)
			alive++
		}
	}
	if alive == 0 {
		return 0
	}
	return sum / float64(alive)
}

func (o oracleNetwork) minReach() float64 {
	m := 1.0
	for _, r := range o.paths {
		m = math.Min(m, r.reach())
	}
	return m
}

// generatedPaths lists a generated network's paths, by source id, with
// the routes and slots its generator realized.
func generatedPaths(g *gen.Generated) ([]scheduledPath, error) {
	var out []scheduledPath
	for _, src := range topology.SortedSources(g.Routes) {
		var route []string
		for _, id := range g.Routes[src].Nodes() {
			n, err := g.Net.Node(id)
			if err != nil {
				return nil, err
			}
			route = append(route, n.Name)
		}
		out = append(out, scheduledPath{source: route[0], route: route, slots: g.Plan.SlotsForSource(src)})
	}
	return out, nil
}

// solveGenerated runs the oracle over a generated network's paths, whose
// links are resolved in links, with link index failed (-1 for none)
// given the window [from, to).
func solveGenerated(g *gen.Generated, paths []scheduledPath, links map[string]oracleHop, failed, from, to int) (oracleNetwork, error) {
	s := g.Spec
	if failed >= 0 {
		l := s.Links[failed]
		l.Failure = &spec.Failure{Kind: "window", FromSlot: from, ToSlot: to}
		h, err := oracleLink(s, l)
		if err != nil {
			return oracleNetwork{}, err
		}
		withFailure := make(map[string]oracleHop, len(links))
		for k, v := range links {
			withFailure[k] = v
		}
		withFailure[linkKey(l.A, l.B)] = h
		links = withFailure
	}
	fup := g.Plan.Fup()
	out := oracleNetwork{fdown: specFdown(s, fup)}
	for _, p := range paths {
		hops, err := routeHops(links, p.route)
		if err != nil {
			return oracleNetwork{}, err
		}
		r, err := oracleSolve(hops, p.slots, fup, specIs(s), s.TTL)
		if err != nil {
			return oracleNetwork{}, err
		}
		out.paths = append(out.paths, r)
	}
	return out, nil
}

// checkFleetRow checks one network row of a fleet report with a failure
// sweep against the oracle run over the regenerated network.
func checkFleetRow(seed uint64, params gen.Params, sweep fleet.FailureSweep, row fleet.NetworkResult) error {
	if row.Error != "" {
		return fmt.Errorf("fleet network %d failed: %s", row.Index, row.Error)
	}
	g, err := gen.Generate(seed, row.Index, params)
	if err != nil {
		return err
	}
	if row.Nodes != g.Net.NumNodes() || row.Links != g.Net.NumLinks() || row.Fup != g.Plan.Fup() {
		return fmt.Errorf("fleet network %d: size %d/%d/%d, generator %d/%d/%d", row.Index,
			row.Nodes, row.Links, row.Fup, g.Net.NumNodes(), g.Net.NumLinks(), g.Plan.Fup())
	}
	paths, err := generatedPaths(g)
	if err != nil {
		return err
	}
	if err := checkSchedule(g.Spec, row.Fup, paths, true); err != nil {
		return fmt.Errorf("fleet network %d: %w", row.Index, err)
	}
	links, err := oracleLinks(g.Spec)
	if err != nil {
		return err
	}
	base, err := solveGenerated(g, paths, links, -1, 0, 0)
	if err != nil {
		return err
	}
	if !closeMS(row.OverallMeanDelayMS, base.overallMeanDelay()) {
		return fmt.Errorf("fleet network %d: overallMeanDelayMS %v, oracle %v", row.Index, row.OverallMeanDelayMS, base.overallMeanDelay())
	}
	if !closeProb(row.MinReachability, base.minReach()) {
		return fmt.Errorf("fleet network %d: minReachability %v, oracle %v", row.Index, row.MinReachability, base.minReach())
	}
	if row.FailureScenarios != len(g.Spec.Links) {
		return fmt.Errorf("fleet network %d: %d failure scenarios for %d links", row.Index, row.FailureScenarios, len(g.Spec.Links))
	}
	worst, sum, minReach := 0.0, 0.0, 1.0
	for i := range g.Spec.Links {
		o, err := solveGenerated(g, paths, links, i, sweep.FromSlot, sweep.ToSlot)
		if err != nil {
			return err
		}
		d := o.overallMeanDelay()
		worst = math.Max(worst, d)
		sum += d
		minReach = math.Min(minReach, o.minReach())
	}
	mean := sum / float64(len(g.Spec.Links))
	switch {
	case !closeMS(row.WorstFailureDelayMS, worst):
		return fmt.Errorf("fleet network %d: worstFailureDelayMS %v, oracle %v", row.Index, row.WorstFailureDelayMS, worst)
	case !closeMS(row.MeanFailureDelayMS, mean):
		return fmt.Errorf("fleet network %d: meanFailureDelayMS %v, oracle %v", row.Index, row.MeanFailureDelayMS, mean)
	case !closeProb(row.WorstFailureMinReachability, minReach):
		return fmt.Errorf("fleet network %d: worstFailureMinReachability %v, oracle %v", row.Index, row.WorstFailureMinReachability, minReach)
	}
	return nil
}

// checkFleetReport checks every row of a fleet report except the rows of
// networks that failed, which the caller counts as failed operations.
func checkFleetReport(rep *fleet.Report, sweep fleet.FailureSweep) error {
	if len(rep.Networks) != rep.Population {
		return fmt.Errorf("fleet seed %d: %d rows for %d networks", rep.Seed, len(rep.Networks), rep.Population)
	}
	for i, row := range rep.Networks {
		if row.Index != i {
			return fmt.Errorf("fleet seed %d: row %d has index %d", rep.Seed, i, row.Index)
		}
		if row.Error != "" {
			continue
		}
		if err := checkFleetRow(rep.Seed, rep.Params, sweep, row); err != nil {
			return err
		}
	}
	return nil
}
