package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs each workload (only the named one when name is set) n
// times as a child process of this binary, at seeds 1..n, and prints for
// every end-to-end metric its median and its interquartile spread as a
// share of the median. Every child must pass its checks, and the share
// of failed operations must be the same in every run.
func runSteady(n int, name string, seconds float64, w io.Writer) error {
	if n < 2 {
		return fmt.Errorf("steady needs at least two runs, got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadOrder
	if name != "" {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		names = []string{name}
	}
	for _, wl := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		var first *result
		for seed := 1; seed <= n; seed++ {
			res, err := runChild(self, wl, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: checks failed", wl, seed)
			}
			if first == nil {
				first = res
			}
			if res.Failed*first.Attempted != first.Failed*res.Attempted {
				return fmt.Errorf("%s seed %d: %d of %d operations failed, seed 1: %d of %d",
					wl, seed, res.Failed, res.Attempted, first.Failed, first.Attempted)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Fprintf(w, "%s: %d runs of %gs, failed/attempted %s\n", wl, n, seconds, strings.Join(shares, " "))
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := append([]float64(nil), values[k]...)
			sort.Float64s(xs)
			q1, q2, q3, err := quartiles(xs)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-18s median %12.5g %-7s spread %6.1f%%  [%.5g .. %.5g]\n",
				k, q2, units[k], 100*(q3-q1)/q2, xs[0], xs[len(xs)-1])
		}
	}
	return nil
}

// runChild runs one untraced workload run and parses its result line.
func runChild(self, wl string, seed int, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", wl, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}
