// Command perfbench is the repository benchmark. It drives the
// evaluation engine through three workloads in one process, checks every
// answer against an oracle that shares no code with the solver, and
// prints one JSON result line:
//
//	perfbench --workload hot-hits|cold-networks|fleet-failsweep \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics for S seconds. With
// --trace 1 it replays every workload's inputs at the given seed through
// the layers' public functions and reports per-layer metrics. With
// --steady N it runs each workload N times at seeds 1..N as child
// processes and prints the median and quartile spread of every
// end-to-end metric. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one run is asked to do.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	stderr  io.Writer
}

// workloads maps each workload to its untraced run.
var workloads = map[string]func(runConfig) (*result, error){
	"hot-hits":        runHot,
	"cold-networks":   runCold,
	"fleet-failsweep": runFleet,
}

// workloadOrder lists the workloads in the order steady and traced runs
// take them.
var workloadOrder = []string{"hot-hits", "cold-networks", "fleet-failsweep"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-hits, cold-networks or fleet-failsweep")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 replays every workload through the layers and reports per-layer metrics")
	steady := fs.Int("steady", 0, "run each workload (or only -workload) this many times at seeds 1..N and report spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), stderr: stderr}
	if *steady > 0 {
		if err := runSteady(*steady, *name, *seconds, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTrace(cfg)
	} else {
		res, err = wl(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB forces a collection and returns the heap still in use. The
// second collection empties the sync.Pool victim caches, which the first
// only demotes.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTime returns the CPU time, user and system, that all of this
// process's threads have used, read from Linux's process CPU clock to
// the nanosecond. Every timing of an untraced run is CPU time: on a
// shared virtual machine the wall time of the same work also counts the
// time the host gives the machine's processors to other tenants, which
// moves wall times by a quarter and more between runs minutes apart
// while the CPU time moves far less (see README.md).
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// timed collects one untraced run: the set-up repetitions, the CPU time
// of each operation of the timed phase, and the work done in it. Work
// the benchmark does for itself inside the timed phase, such as checking
// an answer against the oracle, goes through exclude, so it counts
// neither in the CPU time nor in the allocations.
type timed struct {
	setups   []time.Duration // CPU time of each set-up
	cpu      []float64       // CPU ms per operation
	ops      int64
	failed   int64
	start    time.Time
	paused   time.Duration // wall time excluded, for the run length
	cpuSkip  time.Duration // CPU time excluded
	rates    []float64     // operations per CPU second of each round
	roundCPU time.Duration // CPU time at the start of the round, exclusions removed
	allocs   uint64        // heap allocations of the timed phase, exclusions removed
	startMal uint64
	skipMal  uint64
	liveMB   float64
	failures
}

// begin opens the timed phase. The samples are preallocated for capacity
// operations, more than a run makes, so the benchmark's own slice does
// not grow, and move the live heap, with the number of operations.
func (t *timed) begin(capacity int) {
	t.cpu = make([]float64, 0, capacity)
	runtime.GC()
	t.startMal = mallocs()
	t.start = time.Now()
}

// exclude runs f outside the measurement.
func (t *timed) exclude(f func()) {
	t0, c0, m0 := time.Now(), cpuTime(), mallocs()
	f()
	t.skipMal += mallocs() - m0
	t.cpuSkip += cpuTime() - c0
	t.paused += time.Since(t0)
}

// op runs one operation and records the CPU time the process spent
// while it ran, divided over the n operations it stands for.
func (t *timed) op(n int, f func()) {
	c0 := cpuTime()
	f()
	ms := float64(cpuTime()-c0) / 1e6
	t.cpu = append(t.cpu, ms/float64(n))
	t.ops += int64(n)
}

// due reports whether the timed phase has run its length in wall time;
// workloads ask only at the end of a whole round.
func (t *timed) due(d time.Duration) bool {
	return time.Since(t.start)-t.paused >= d
}

// startRound and endRound bracket a round of ops operations. The
// reported rate is the median over the rounds: a garbage collection or
// an accounting hiccup of the host lands in few rounds and would move a
// mean over the run.
func (t *timed) startRound() {
	t.roundCPU = cpuTime() - t.cpuSkip
}

func (t *timed) endRound(ops int) {
	d := cpuTime() - t.cpuSkip - t.roundCPU
	t.rates = append(t.rates, float64(ops)/d.Seconds())
}

// end closes the timed phase.
func (t *timed) end() {
	t.allocs = mallocs() - t.startMal - t.skipMal
}

// failures records failed checks; the first few are printed.
type failures struct {
	stderr io.Writer
	errs   []error
}

func (f *failures) fail(err error) {
	if len(f.errs) < 5 {
		fmt.Fprintln(f.stderr, "perfbench: check failed:", err)
	}
	f.errs = append(f.errs, err)
}

// result assembles the end-to-end metrics.
func (t *timed) result() *result {
	setups := make([]float64, len(t.setups))
	for i, d := range t.setups {
		setups[i] = d.Seconds()
	}
	cpu := append([]float64(nil), t.cpu...)
	sort.Float64s(cpu)
	ops := math.Max(float64(t.ops), 1)
	return &result{
		Correct:   len(t.errs) == 0,
		Attempted: t.ops,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"cpu_p50_ms":    {percentile(cpu, 0.5), "ms"},
			"cpu_p90_ms":    {percentile(cpu, 0.9), "ms"},
			"ops_per_cpu_s": {median(t.rates), "1/s"},
			"setup_s":       {median(setups), "s"},
			"allocs_per_op": {float64(t.allocs) / ops, "allocs"},
			"live_heap_mb":  {t.liveMB, "MB"},
		},
	}
}

// percentile is the type-7 (linear interpolation) quantile of sorted xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the three cut points of sorted xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads read the same as the tools that judge them.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two values")
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}
