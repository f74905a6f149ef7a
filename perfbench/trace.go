package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"wirelesshart/internal/core"
	"wirelesshart/internal/engine"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// The traced run first runs a fixed amount of each workload untraced,
// reading the engine's public counters afterwards, and then replays the
// same inputs through the layers' public functions, timing each call.
// The program itself carries no instrumentation. The replay makes the
// calls the engine makes, in its order: path models are looked up in and
// built through caches of the engine's sizes and eviction rule, so the
// replay builds a structure exactly where the engine misses its
// structure cache. The work is fixed, not timed, so every count repeats
// exactly for a seed; the fleet's untraced pass runs one worker for the
// same reason (two workers race for the engine's caches); --seconds does
// not apply. The remainder, the untraced wall time minus the summed
// replayed layer time, is reported as engine.http.other_ms for the HTTP
// workloads and fleet.other_ms for the fleet.
const (
	traceHotRounds  = 10
	traceColdRounds = 2
)

// layerStat accumulates one layer's replayed calls.
type layerStat struct {
	calls  int64
	busy   time.Duration
	allocs uint64
}

// tracer times calls into layers, or counts their allocations. Reading
// the allocation count stops the world and disturbs the caches, so the
// inputs are replayed twice: once timed and once counting allocations.
type tracer struct {
	countAllocs bool
	layers      map[string]*layerStat
	counts      map[string]int64
}

func newTracer(countAllocs bool) *tracer {
	return &tracer{countAllocs: countAllocs, layers: map[string]*layerStat{}, counts: map[string]int64{}}
}

func (tr *tracer) layer(name string) *layerStat {
	l := tr.layers[name]
	if l == nil {
		l = &layerStat{}
		tr.layers[name] = l
	}
	return l
}

// call runs f as one call into the named layer.
func (tr *tracer) call(name string, f func() error) error {
	l := tr.layer(name)
	l.calls++
	if tr.countAllocs {
		m0 := mallocs()
		err := f()
		l.allocs += mallocs() - m0
		return err
	}
	t0 := time.Now()
	err := f()
	l.busy += time.Since(t0)
	return err
}

// emit adds the named layers' metrics under the workload's prefix.
func emit(out map[string]metric, prefix string, timing, allocs *tracer, layers ...string) {
	for _, name := range layers {
		l, a := timing.layer(name), allocs.layer(name)
		per := 0.0
		if a.calls > 0 {
			per = float64(a.allocs) / float64(a.calls)
		}
		out[prefix+name+".calls"] = metric{float64(l.calls), "count"}
		out[prefix+name+".busy_ms"] = metric{ms(l.busy), "ms"}
		out[prefix+name+".allocs_per_call"] = metric{per, "allocs/call"}
	}
}

// emitCounts adds the named counts of the timed pass.
func emitCounts(out map[string]metric, prefix string, timing *tracer, names ...string) {
	for _, c := range names {
		out[prefix+c] = metric{float64(timing.counts[c]), "count"}
	}
}

// remainder is wall minus the time the named layers were busy.
func (tr *tracer) remainder(wall time.Duration, layers ...string) float64 {
	for _, name := range layers {
		wall -= tr.layer(name).busy
	}
	return ms(wall)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// emitEngine adds the engine's public cache and solve counters.
func emitEngine(out map[string]metric, prefix string, s engine.Snapshot) {
	for name, v := range map[string]int64{
		"engine.cache_hits":          s.CacheHits,
		"engine.cache_misses":        s.CacheMisses,
		"engine.struct_cache_hits":   s.StructCacheHits,
		"engine.struct_cache_misses": s.StructCacheMisses,
		"engine.kernel_cache_hits":   s.KernelCacheHits,
		"engine.kernel_cache_misses": s.KernelCacheMisses,
		"engine.solves":              s.Solves,
	} {
		out[prefix+name] = metric{float64(v), "count"}
	}
}

// traceTally is the traced run's outcome across workloads.
type traceTally struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures
}

func runTrace(cfg runConfig) (*result, error) {
	tt := &traceTally{metrics: map[string]metric{}, failures: failures{stderr: cfg.stderr}}
	for _, f := range []func(*traceTally, uint64) error{traceHot, traceCold, traceFleet} {
		if err := f(tt, cfg.seed); err != nil {
			return nil, err
		}
	}
	return &result{Correct: len(tt.errs) == 0, Attempted: tt.attempted, Failed: tt.failed, Metrics: tt.metrics}, nil
}

// decodeRequest decodes a request body strictly, as the handler does:
// unknown fields are rejected, so /v1/network bodies decode without a
// source field.
func decodeRequest(r request) (*spec.Spec, error) {
	var dst any
	var sc **spec.Spec
	if r.source != "" {
		v := &struct {
			Scenario *spec.Spec `json:"scenario"`
			Source   string     `json:"source"`
		}{}
		dst, sc = v, &v.Scenario
	} else {
		v := &struct {
			Scenario *spec.Spec `json:"scenario"`
		}{}
		dst, sc = v, &v.Scenario
	}
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return nil, err
	}
	if *sc == nil {
		return nil, errors.New("missing scenario")
	}
	return *sc, nil
}

// encodeAnswer encodes v as the handler's writeJSON does.
func encodeAnswer(buf *bytes.Buffer, v any) error {
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// dropHeap collects what the untraced pass, or the previous replay,
// left behind. The replay keeps caches of its own, and the collector's
// work grows with the live heap, so a replay sharing the heap with the
// engine it replays, or with an earlier replay, would run slower than
// the program did.
func dropHeap() {
	runtime.GC()
	runtime.GC()
}

// replayLRU is a bounded least-recently-used map with the engine's
// eviction rule: a lookup refreshes an entry, and an insertion into a
// full cache drops the least recently used one.
type replayLRU struct {
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type replayEntry struct {
	key string
	val any
}

func newReplayLRU(capacity int) *replayLRU {
	return &replayLRU{cap: capacity, order: list.New(), items: map[string]*list.Element{}}
}

func (c *replayLRU) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*replayEntry).val, true
}

func (c *replayLRU) add(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*replayEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&replayEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*replayEntry).key)
	}
}

// replayEngine replays the solves an engine makes for scenarios that miss
// its scenario cache. Its kernel and structure caches have the engine's
// size, keys and eviction rule, and it consults them where the engine
// does: a path without an injected failure is looked up by its full
// model key first; otherwise, or on a miss, its structure is looked up
// in the analysis' own memo, then in the structure cache, and built only
// when both miss; the model is then bound and, if cacheable, cached.
type replayEngine struct {
	tr      *tracer
	kernels *replayLRU
	structs *replayLRU
}

func newReplayEngine(tr *tracer, cacheSize int) *replayEngine {
	return &replayEngine{tr: tr, kernels: newReplayLRU(cacheSize), structs: newReplayLRU(cacheSize)}
}

// build keys and builds one scenario.
func (re *replayEngine) build(s *spec.Spec) (*spec.Built, error) {
	if err := re.tr.call("engine.key", func() error { _, err := engine.Key(s); return err }); err != nil {
		return nil, err
	}
	var built *spec.Built
	err := re.tr.call("spec.build", func() (err error) { built, err = s.Build(); return err })
	return built, err
}

// sourceOrder is the analyzer's source order: every field device, by id.
func sourceOrder(s *spec.Spec, built *spec.Built) ([]topology.NodeID, error) {
	if len(s.Sources) > 0 {
		return nil, errors.New("replay: scenarios restricting their sources are not supported")
	}
	srcs := append([]topology.NodeID(nil), built.Sources...)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	return srcs, nil
}

// pathModels builds every source's path model as the analyzer does
// inside the engine, in source order.
func (re *replayEngine) pathModels(s *spec.Spec, built *spec.Built) ([]*pathmodel.Model, error) {
	srcs, err := sourceOrder(s, built)
	if err != nil {
		return nil, err
	}
	routes := built.Analyzer.Routes()
	fup, is := built.Schedule.Fup(), built.Analyzer.Is()
	memo := map[string]*pathmodel.Structure{}
	models := make([]*pathmodel.Model, 0, len(srcs))
	for _, src := range srcs {
		route, ok := routes[src]
		if !ok {
			return nil, fmt.Errorf("replay: no route for source %d", src)
		}
		slots := built.Schedule.SlotsForSource(src)
		key := ""
		if !routeFailed(built, route) {
			procs := make([]link.Process, 0, route.Hops())
			for _, lid := range route.Links() {
				procs = append(procs, built.Analyzer.LinkProcess(lid))
			}
			key = core.ProcessKey(slots, fup, is, s.TTL, procs)
			if m, ok := re.kernels.get(key); ok {
				models = append(models, m.(*pathmodel.Model))
				continue
			}
		}
		skey := pathmodel.StructKey(slots, fup, is, s.TTL)
		st, ok := memo[skey]
		if !ok {
			if v, hit := re.structs.get(skey); hit {
				st = v.(*pathmodel.Structure)
			} else {
				err := re.tr.call("pathmodel.structure", func() (err error) {
					st, err = pathmodel.BuildStructure(slots, fup, is, s.TTL)
					return err
				})
				if err != nil {
					return nil, err
				}
				re.tr.counts["pathmodel.structure.states"] += int64(st.NumStates())
				re.structs.add(skey, st)
			}
			memo[skey] = st
		}
		avails, err := pathAvails(built, route)
		if err != nil {
			return nil, err
		}
		var m *pathmodel.Model
		if err := re.tr.call("pathmodel.bind", func() (err error) { m, err = st.Bind(avails); return err }); err != nil {
			return nil, err
		}
		if key != "" {
			re.kernels.add(key, m)
		}
		models = append(models, m)
	}
	return models, nil
}

// evaluate replays Engine.Evaluate of a scenario the cache misses: key,
// build, every path's model, one solve per path, and the measures.
func (re *replayEngine) evaluate(s *spec.Spec) error {
	built, err := re.build(s)
	if err != nil {
		return err
	}
	models, err := re.pathModels(s, built)
	if err != nil {
		return err
	}
	results := make([]*pathmodel.Result, len(models))
	for i, m := range models {
		if err := re.tr.call("pathmodel.solve", func() (err error) { results[i], err = m.Solve(); return err }); err != nil {
			return err
		}
		re.tr.counts["pathmodel.solve.slot_steps"] += int64(results[i].Is * results[i].Fup)
	}
	return replayMeasures(re.tr, results, built.Analyzer.Fdown())
}

// evaluateBatch replays Engine.EvaluateBatch of distinct scenarios the
// cache misses: every key, then every build with its path models, then
// one pathmodel.SolveBatch per shared structure in first-occurrence
// order, then each scenario's measures.
func (re *replayEngine) evaluateBatch(specs []*spec.Spec) error {
	for _, s := range specs {
		if err := re.tr.call("engine.key", func() error { _, err := engine.Key(s); return err }); err != nil {
			return err
		}
	}
	type ref struct{ item, path int }
	var order []*pathmodel.Structure
	groups := map[*pathmodel.Structure][]ref{}
	builds := make([]*spec.Built, len(specs))
	models := make([][]*pathmodel.Model, len(specs))
	for i, s := range specs {
		err := re.tr.call("spec.build", func() (err error) { builds[i], err = s.Build(); return err })
		if err != nil {
			return err
		}
		if models[i], err = re.pathModels(s, builds[i]); err != nil {
			return err
		}
		for p, m := range models[i] {
			st := m.Structure()
			if _, ok := groups[st]; !ok {
				order = append(order, st)
			}
			groups[st] = append(groups[st], ref{i, p})
		}
	}
	results := make([][]*pathmodel.Result, len(specs))
	for i := range specs {
		results[i] = make([]*pathmodel.Result, len(models[i]))
	}
	for _, st := range order {
		refs := groups[st]
		batch := make([]*pathmodel.Model, len(refs))
		for k, r := range refs {
			batch[k] = models[r.item][r.path]
		}
		var solved []*pathmodel.Result
		if err := re.tr.call("pathmodel.batch", func() (err error) { solved, err = pathmodel.SolveBatch(batch); return err }); err != nil {
			return err
		}
		re.tr.counts["pathmodel.batch.scenarios"] += int64(len(solved))
		for k, r := range refs {
			results[r.item][r.path] = solved[k]
		}
	}
	for i, b := range builds {
		if err := replayMeasures(re.tr, results[i], b.Analyzer.Fdown()); err != nil {
			return err
		}
	}
	return nil
}

// routeFailed reports whether any hop of the route carries an injected
// failure; the engine does not cache such paths' models.
func routeFailed(built *spec.Built, route topology.Path) bool {
	for _, lid := range route.Links() {
		if _, ok := built.Failures[lid]; ok {
			return true
		}
	}
	return false
}

// pathAvails resolves the per-hop availabilities of a route the way the
// analyzer does: each link's steady state, or its injected window
// failure.
func pathAvails(built *spec.Built, route topology.Path) ([]link.Availability, error) {
	var avails []link.Availability
	for _, lid := range route.Links() {
		m := built.LinkModels[lid]
		f, failed := built.Failures[lid]
		if !failed {
			avails = append(avails, m.Steady())
			continue
		}
		if f.Kind != "window" {
			return nil, fmt.Errorf("replay: %q failures are not supported", f.Kind)
		}
		av, err := m.DownDuring(f.FromSlot, f.ToSlot, m.Steady())
		if err != nil {
			return nil, err
		}
		avails = append(avails, av)
	}
	return avails, nil
}

// replayMeasures derives one scenario's measures from its solved paths,
// as the analyzer does after a solve.
func replayMeasures(tr *tracer, results []*pathmodel.Result, fdown int) error {
	return tr.call("measures", func() error {
		for _, res := range results {
			_ = measures.CycleFunction(res)
			_ = measures.UtilizationExact(res)
			_ = measures.UtilizationClosedForm(res, false)
			if res.Reachability() > 0 {
				pmf, err := measures.DelayDistribution(res, fdown)
				if err != nil {
					return err
				}
				_ = pmf.Mean()
			}
		}
		if _, err := measures.OverallDelay(results, fdown); err != nil {
			return err
		}
		_, err := measures.OverallMeanDelayMS(results, fdown)
		if errors.Is(err, measures.ErrNoDelivery) {
			err = nil
		}
		return err
	})
}

func traceHot(tt *traceTally, seed uint64) error {
	st, err := setupHot(seed)
	if err != nil {
		return err
	}
	defer st.bed.close()
	if err := st.check(); err != nil {
		tt.fail(err)
	}
	var wall time.Duration
	for round := 0; round < traceHotRounds; round++ {
		for i, r := range st.in.reqs {
			t0 := time.Now()
			status, body, err := st.bed.post(r.path, r.body)
			wall += time.Since(t0)
			tt.attempted++
			switch {
			case err != nil || status != http.StatusOK:
				tt.failed++
			case !bytes.Equal(body, st.first[i]):
				tt.fail(fmt.Errorf("hot-hits %s scenario %d: answer differs from the first", r.path, r.scenario))
			}
		}
	}
	// Read before the replay, whose cached evaluations would count.
	counters := st.bed.eng.MetricsSnapshot()
	timing, allocs := newTracer(false), newTracer(true)
	// The set-up's solves are replayed on tracers of their own, so that
	// only their structure builds are reported, not their keys or builds.
	setupTiming, setupAllocs := newTracer(false), newTracer(true)
	var buf bytes.Buffer
	for pass, tr := range []*tracer{timing, allocs} {
		for round := 0; round < traceHotRounds; round++ {
			for i := range st.in.reqs {
				if err := replayHotRequest(tr, st, i, &buf); err != nil {
					return err
				}
			}
		}
		re := newReplayEngine([]*tracer{setupTiming, setupAllocs}[pass], counters.CacheCap)
		for _, j := range st.solveOrder {
			if err := re.evaluate(st.in.specs[j]); err != nil {
				return err
			}
		}
	}

	const prefix = "hot-hits."
	emitEngine(tt.metrics, prefix, counters)
	layers := []string{"spec.decode", "engine.key", "engine.encode"}
	emit(tt.metrics, prefix, timing, allocs, layers...)
	emit(tt.metrics, prefix, setupTiming, setupAllocs, "pathmodel.structure")
	tt.metrics[prefix+"engine.lookup.busy_ms"] = metric{ms(timing.layer("engine.lookup").busy), "ms"}
	tt.metrics[prefix+"engine.http.other_ms"] = metric{timing.remainder(wall, append(layers, "engine.lookup")...), "ms"}
	tt.metrics[prefix+"engine.encode.bytes"] = metric{float64(timing.counts["engine.encode.bytes"]), "bytes"}
	emitCounts(tt.metrics, prefix, setupTiming, "pathmodel.structure.states")
	return nil
}

// lookupReps repeats each cached evaluation in the timed replay. A cache
// lookup is a small part of a hit, so it is taken as the fastest
// evaluation minus the fastest key computation of the same scenario,
// which single differences would drown in noise.
const lookupReps = 5

// replayHotRequest replays request i of the hot-hits round against the
// warm engine: decode, key, the cached lookup and the encoding, which
// must reproduce the served answer byte for byte.
func replayHotRequest(tr *tracer, st *hotState, i int, buf *bytes.Buffer) error {
	r := st.in.reqs[i]
	var s *spec.Spec
	if err := tr.call("spec.decode", func() (err error) { s, err = decodeRequest(r); return err }); err != nil {
		return err
	}
	if err := tr.call("engine.key", func() error { _, err := engine.Key(s); return err }); err != nil {
		return err
	}
	var res *engine.Result
	var err error
	if tr.countAllocs {
		res, err = st.bed.eng.Evaluate(context.Background(), s)
	} else {
		res, err = timeLookup(tr, st.bed.eng, s)
	}
	if err != nil {
		return err
	}
	err = tr.call("engine.encode", func() error {
		if r.source == "" {
			return encodeAnswer(buf, res)
		}
		p, ok := res.Path(r.source)
		if !ok {
			return fmt.Errorf("no path for %s", r.source)
		}
		return encodeAnswer(buf, evaluateAnswer{Key: res.Key, Fup: res.Fup, Schedule: res.Schedule, Path: p})
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), st.first[i]) {
		return fmt.Errorf("hot-hits replay: encoding of %s scenario %d differs from the served answer", r.path, r.scenario)
	}
	tr.counts["engine.encode.bytes"] += int64(buf.Len())
	return nil
}

// timeLookup evaluates a cached scenario lookupReps times and adds the
// lookup's share of a hit to the engine.lookup layer.
func timeLookup(tr *tracer, eng *engine.Engine, s *spec.Spec) (*engine.Result, error) {
	ctx := context.Background()
	var res *engine.Result
	minKey, minEval := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < lookupReps; i++ {
		t0 := time.Now()
		if _, err := engine.Key(s); err != nil {
			return nil, err
		}
		minKey = min(minKey, time.Since(t0))
		t0 = time.Now()
		r, err := eng.Evaluate(ctx, s)
		if err != nil {
			return nil, err
		}
		minEval = min(minEval, time.Since(t0))
		res = r
	}
	tr.layer("engine.lookup").busy += minEval - minKey
	return res, nil
}

func traceCold(tt *traceTally, seed uint64) error {
	st, err := setupCold(seed)
	if err != nil {
		return err
	}
	reqs := st.in.reqs[:traceColdRounds*coldRound]
	bodies := make([][]byte, len(reqs))
	var wall time.Duration
	for k, r := range reqs {
		t0 := time.Now()
		status, body, err := st.bed.post(r.path, r.body)
		wall += time.Since(t0)
		tt.attempted++
		if err != nil || status != http.StatusOK {
			tt.failed++
			continue
		}
		bodies[k] = bytes.Clone(body)
		if _, err := checkAnswer(st.in.specs, -1, r, body); err != nil {
			tt.fail(fmt.Errorf("cold-networks network %d: %w", k, err))
		}
	}
	counters := st.bed.eng.MetricsSnapshot()
	if err := st.bed.close(); err != nil {
		return err
	}
	st.bed = nil
	timing, allocs := newTracer(false), newTracer(true)
	var buf bytes.Buffer
	for _, tr := range []*tracer{timing, allocs} {
		re := newReplayEngine(tr, counters.CacheCap)
		dropHeap()
		for k, r := range reqs {
			if bodies[k] == nil {
				continue
			}
			if err := replayColdRequest(re, r, bodies[k], &buf); err != nil {
				return err
			}
		}
	}

	const prefix = "cold-networks."
	emitEngine(tt.metrics, prefix, counters)
	layers := []string{"spec.decode", "engine.key", "spec.build", "pathmodel.structure", "pathmodel.bind",
		"pathmodel.solve", "measures", "engine.encode"}
	emit(tt.metrics, prefix, timing, allocs, layers...)
	tt.metrics[prefix+"engine.http.other_ms"] = metric{timing.remainder(wall, layers...), "ms"}
	tt.metrics[prefix+"engine.encode.bytes"] = metric{float64(timing.counts["engine.encode.bytes"]), "bytes"}
	emitCounts(tt.metrics, prefix, timing, "pathmodel.structure.states", "pathmodel.solve.slot_steps")
	return nil
}

// replayColdRequest replays one cold-networks request: decode, the
// engine's solve, and the encoding of the served answer, which it must
// reproduce byte for byte.
func replayColdRequest(re *replayEngine, r request, body []byte, buf *bytes.Buffer) error {
	var s *spec.Spec
	if err := re.tr.call("spec.decode", func() (err error) { s, err = decodeRequest(r); return err }); err != nil {
		return err
	}
	if err := re.evaluate(s); err != nil {
		return err
	}
	var res engine.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if err := re.tr.call("engine.encode", func() error { return encodeAnswer(buf, &res) }); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("cold-networks replay: encoding of network %d differs from the served answer", r.scenario)
	}
	re.tr.counts["engine.encode.bytes"] += int64(buf.Len())
	return nil
}

// traceFleet runs the first population of the seed with one worker, then
// replays it network by network in the order that worker took them.
func traceFleet(tt *traceTally, seed uint64) error {
	r, err := newPopulation(seed, 1, 1)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rep, err := r.Run(context.Background())
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	tt.attempted += int64(rep.Population)
	tt.failed += int64(rep.Aggregate.Failed)
	if err := checkFleetReport(rep, fleetSweep); err != nil {
		tt.fail(err)
	}
	counters := r.Engine().MetricsSnapshot()
	r = nil
	timing, allocs := newTracer(false), newTracer(true)
	for _, tr := range []*tracer{timing, allocs} {
		re := newReplayEngine(tr, counters.CacheCap)
		dropHeap()
		for i := 0; i < fleetPopulation; i++ {
			if err := replayFleetNetwork(re, fleetSeed(seed, 1), i); err != nil {
				return err
			}
		}
	}

	const prefix = "fleet-failsweep."
	emitEngine(tt.metrics, prefix, counters)
	layers := []string{"gen.generate", "engine.key", "spec.build", "pathmodel.structure", "pathmodel.bind",
		"pathmodel.solve", "pathmodel.batch", "measures"}
	emit(tt.metrics, prefix, timing, allocs, layers...)
	tt.metrics[prefix+"fleet.other_ms"] = metric{timing.remainder(wall, layers...), "ms"}
	emitCounts(tt.metrics, prefix, timing, "pathmodel.structure.states", "pathmodel.solve.slot_steps", "pathmodel.batch.scenarios")
	return nil
}

// replayFleetNetwork replays one network of a failure-sweep population as
// the runner evaluates it: generation, the baseline evaluation, and the
// batch of its single-link window failures.
func replayFleetNetwork(re *replayEngine, popSeed uint64, index int) error {
	var g *gen.Generated
	if err := re.tr.call("gen.generate", func() (err error) { g, err = gen.Generate(popSeed, index, gen.DefaultParams()); return err }); err != nil {
		return err
	}
	if err := re.evaluate(g.Spec); err != nil {
		return err
	}
	scenarios := make([]*spec.Spec, len(g.Spec.Links))
	for i := range g.Spec.Links {
		c := *g.Spec
		c.Links = append([]spec.Link(nil), g.Spec.Links...)
		c.Links[i].Failure = &spec.Failure{Kind: "window", FromSlot: fleetSweep.FromSlot, ToSlot: fleetSweep.ToSlot}
		scenarios[i] = &c
	}
	return re.evaluateBatch(scenarios)
}
