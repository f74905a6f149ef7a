package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"wirelesshart/internal/engine"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

// serverTimeout is whart-server's default per-request timeout.
const serverTimeout = 30 * time.Second

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 7

// bed is an engine served over loopback HTTP to one keep-alive client,
// all in this process.
type bed struct {
	eng    *engine.Engine
	srv    *http.Server
	served chan error
	tr     *http.Transport
	client *http.Client
	base   string
	buf    bytes.Buffer
}

// startBed serves a fresh engine with whart-server's default sizes.
func startBed() (*bed, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{})
	b := &bed{
		eng:    eng,
		srv:    &http.Server{Handler: engine.NewHandler(eng, serverTimeout)},
		served: make(chan error, 1),
		tr:     &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		base:   "http://" + ln.Addr().String(),
	}
	b.client = &http.Client{Transport: b.tr}
	go func() { b.served <- b.srv.Serve(ln) }()
	return b, nil
}

// post sends one request and returns the status and the body, which is
// valid until the next call.
func (b *bed) post(path string, body []byte) (int, []byte, error) {
	resp, err := b.client.Post(b.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b.buf.Reset()
	_, err = b.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b.buf.Bytes(), nil
}

// get sends one GET request and discards the body.
func (b *bed) get(path string) error {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return err
	}
	b.buf.Reset()
	_, err = b.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return err
}

// close stops the server and waits for it to return.
func (b *bed) close() error {
	b.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// request is one prepared HTTP request of a workload.
type request struct {
	scenario int    // index into the workload's specs
	source   string // "" for /v1/network
	path     string
	body     []byte
}

type requestBody struct {
	Scenario *spec.Spec `json:"scenario"`
	Source   string     `json:"source,omitempty"`
}

func newRequest(specs []*spec.Spec, scenario int, source string) (request, error) {
	body, err := json.Marshal(requestBody{Scenario: specs[scenario], Source: source})
	if err != nil {
		return request{}, err
	}
	path := "/v1/network"
	if source != "" {
		path = "/v1/evaluate"
	}
	return request{scenario: scenario, source: source, path: path, body: body}, nil
}

// evaluateAnswer is the /v1/evaluate response shape.
type evaluateAnswer struct {
	Key      string            `json:"key"`
	Fup      int               `json:"fup"`
	Schedule string            `json:"schedule"`
	Path     engine.PathResult `json:"path"`
}

// checkAnswer decodes an answer to r and checks it against the oracle. It
// returns the answer's scenario key.
func checkAnswer(specs []*spec.Spec, typical int, r request, body []byte) (string, error) {
	s := specs[r.scenario]
	if r.source != "" {
		var a evaluateAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return "", err
		}
		return a.Key, checkEvaluate(s, r.source, a.Fup, a.Path)
	}
	var res engine.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return "", err
	}
	if err := checkNetwork(s, &res); err != nil {
		return "", err
	}
	if r.scenario == typical {
		if err := checkTypical(&res); err != nil {
			return "", err
		}
	}
	return res.Key, nil
}

// Workload sizes. hot-hits serves a working set of hotNetworks generated
// networks, one of each device count from 20 to 40, plus the paper's
// typical network; a round asks each scenario once for the whole network
// and hotEvaluates times for a single source. cold-networks posts a pool
// of coldPool distinct networks in rounds of coldRound; every round
// holds the same mix of reporting intervals and device counts (see
// coldShape), so the seed changes the topologies but not the mix. The
// pool is one round larger than the engine's 256-entry scenario cache,
// so a run that goes round it meets only networks the cache has evicted.
const (
	hotNetworks  = 21
	hotEvaluates = 4
	coldRound    = 16
	coldPool     = 256 + coldRound
)

// Streams of the seed each workload draws from.
const (
	hotStream  = 1
	coldStream = 2
)

// hotInputs is the working set and one round of hot-hits requests.
type hotInputs struct {
	specs   []*spec.Spec
	typical int
	reqs    []request
}

func makeHotInputs(seed uint64) (*hotInputs, error) {
	in := &hotInputs{}
	for k := 0; k < hotNetworks; k++ {
		p := gen.DefaultParams()
		p.NodesMin, p.NodesMax = 20+k, 20+k
		g, err := gen.Generate(seed, k, p)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, g.Spec)
	}
	in.typical = len(in.specs)
	in.specs = append(in.specs, spec.TypicalSpec())
	rng := rand.New(rand.NewPCG(seed, hotStream))
	for j, s := range in.specs {
		r, err := newRequest(in.specs, j, "")
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, r)
		srcs := reportingSources(s)
		for e := 0; e < hotEvaluates; e++ {
			r, err := newRequest(in.specs, j, srcs[rng.IntN(len(srcs))])
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, r)
		}
	}
	rng.Shuffle(len(in.reqs), func(i, j int) { in.reqs[i], in.reqs[j] = in.reqs[j], in.reqs[i] })
	return in, nil
}

// hotState is one set-up of hot-hits: the inputs, the served engine with
// every scenario solved, and the first answer to every request.
type hotState struct {
	in    *hotInputs
	bed   *bed
	first [][]byte
	// solveOrder lists the scenarios in the order set-up solved them.
	solveOrder []int
}

// setupHot generates the inputs, starts the server and warms the cache
// by sending every request once. The whole-network requests go first, from
// the typical network and the largest generated one down to the smallest,
// so the engine's bounded caches end up holding the same part of the
// working set for every seed: the structures of the smallest networks,
// as many of them as fit. Answers are checked later, by check.
func setupHot(seed uint64) (*hotState, error) {
	in, err := makeHotInputs(seed)
	if err != nil {
		return nil, err
	}
	b, err := startBed()
	if err != nil {
		return nil, err
	}
	st := &hotState{in: in, bed: b, first: make([][]byte, len(in.reqs))}
	order := make([]int, 0, len(in.reqs))
	for _, evaluates := range []bool{false, true} {
		for j := len(in.specs) - 1; j >= 0; j-- {
			if !evaluates {
				st.solveOrder = append(st.solveOrder, j)
			}
			for i, r := range in.reqs {
				if r.scenario == j && (r.source != "") == evaluates {
					order = append(order, i)
				}
			}
		}
	}
	for _, i := range order {
		r := in.reqs[i]
		status, body, err := b.post(r.path, r.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s for scenario %d: status %d: %s", r.path, r.scenario, status, body)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("hot-hits warm-up: %w", err)
		}
		st.first[i] = bytes.Clone(body)
	}
	return st, nil
}

// check checks every first answer against the oracle, and that the
// answers for one scenario agree on its key.
func (st *hotState) check() error {
	keys := map[int]string{}
	for i, r := range st.in.reqs {
		key, err := checkAnswer(st.in.specs, st.in.typical, r, st.first[i])
		if err != nil {
			return fmt.Errorf("hot-hits %s scenario %d: %w", r.path, r.scenario, err)
		}
		if k, ok := keys[r.scenario]; ok && k != key {
			return fmt.Errorf("hot-hits scenario %d answered under keys %s and %s", r.scenario, k, key)
		}
		keys[r.scenario] = key
	}
	return nil
}

// setupRepeated runs setup setupRepeats times, taking the CPU time of
// each, closes all but the last and returns it.
func setupRepeated[S any](t *timed, setup func() (S, error), closeOld func(S) error) (S, error) {
	var st S
	for i := 0; i < setupRepeats; i++ {
		c0 := cpuTime()
		next, err := setup()
		if err != nil {
			return st, err
		}
		t.setups = append(t.setups, cpuTime()-c0)
		if i > 0 {
			if err := closeOld(st); err != nil {
				return st, err
			}
		}
		st = next
	}
	return st, nil
}

func runHot(cfg runConfig) (*result, error) {
	t := &timed{failures: failures{stderr: cfg.stderr}}
	st, err := setupRepeated(t, func() (*hotState, error) { return setupHot(cfg.seed) },
		func(old *hotState) error { return old.bed.close() })
	if err != nil {
		return nil, err
	}
	defer st.bed.close()
	if err := st.check(); err != nil {
		t.fail(err)
	}
	t.begin(1 << 19)
	for !t.due(cfg.seconds) {
		t.startRound()
		for i, r := range st.in.reqs {
			var status int
			var body []byte
			var err error
			t.op(1, func() { status, body, err = st.bed.post(r.path, r.body) })
			switch {
			case err != nil || status != http.StatusOK:
				t.failed++
			case !bytes.Equal(body, st.first[i]):
				t.fail(fmt.Errorf("hot-hits %s scenario %d: answer differs from the first", r.path, r.scenario))
			}
		}
		t.endRound(len(st.in.reqs))
	}
	t.end()
	t.liveMB = liveHeapMB()
	return t.result(), nil
}

// coldInputs is the pool of distinct networks cold-networks posts.
type coldInputs struct {
	specs []*spec.Spec
	reqs  []request
}

// coldShape is the reporting interval and device count of position j of
// a cold-networks round: Is takes every value of 1..16 once and the
// device count spreads evenly over 20..40, paired so that long intervals
// meet both small and large networks.
func coldShape(j int) (is, nodes int) {
	return 1 + 7*j%coldRound, 20 + (20*j+7)/(coldRound-1)
}

// makeColdInputs generates the pool; network k takes the shape of its
// position in its round.
func makeColdInputs(seed uint64) (*coldInputs, error) {
	in := &coldInputs{}
	for k := 0; k < coldPool; k++ {
		is, nodes := coldShape(k % coldRound)
		p := gen.DefaultParams()
		p.NodesMin, p.NodesMax = nodes, nodes
		p.ReportingInterval = is
		g, err := gen.Generate(seed^(coldStream<<32), k, p)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, g.Spec)
		r, err := newRequest(in.specs, k, "")
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, r)
	}
	return in, nil
}

type coldState struct {
	in  *coldInputs
	bed *bed
}

func setupCold(seed uint64) (*coldState, error) {
	in, err := makeColdInputs(seed)
	if err != nil {
		return nil, err
	}
	b, err := startBed()
	if err != nil {
		return nil, err
	}
	if err := b.get("/healthz"); err != nil {
		b.close()
		return nil, err
	}
	return &coldState{in: in, bed: b}, nil
}

func runCold(cfg runConfig) (*result, error) {
	t := &timed{failures: failures{stderr: cfg.stderr}}
	st, err := setupRepeated(t, func() (*coldState, error) { return setupCold(cfg.seed) },
		func(old *coldState) error { return old.bed.close() })
	if err != nil {
		return nil, err
	}
	defer st.bed.close()
	var heaps []float64
	t.begin(1 << 12)
	for k, rounds := 0, 0; !t.due(cfg.seconds); rounds++ {
		if rounds > 0 {
			// The structure and kernel caches, which hold most of the
			// live heap, fill within the first round: read the live heap
			// at every later round boundary and report the median, which
			// depends less on the last few networks' topologies.
			t.exclude(func() { heaps = append(heaps, liveHeapMB()) })
		}
		t.startRound()
		for j := 0; j < coldRound; j, k = j+1, (k+1)%coldPool {
			r := st.in.reqs[k]
			var status int
			var body []byte
			var err error
			t.op(1, func() { status, body, err = st.bed.post(r.path, r.body) })
			if err != nil || status != http.StatusOK {
				t.failed++
				continue
			}
			t.exclude(func() {
				if _, err := checkAnswer(st.in.specs, -1, r, body); err != nil {
					t.fail(fmt.Errorf("cold-networks network %d: %w", k, err))
				}
			})
		}
		t.endRound(coldRound)
	}
	t.end()
	t.liveMB = median(append(heaps, liveHeapMB()))
	return t.result(), nil
}
