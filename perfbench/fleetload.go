package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"

	"wirelesshart/internal/fleet"
	"wirelesshart/internal/gen"
)

// fleet-failsweep runs whole populations through fleet.Runner as
// whart-fleet runs them with its defaults and `-failsweep 0-20`: 100
// networks of gen.DefaultParams (20 to 40 devices, Is = 4), GOMAXPROCS
// workers, and the engine fleet.New sizes for the population. Each
// population has its own seed and a fresh runner. One operation is one
// network.
const (
	fleetPopulation = 100
	fleetSweepFrom  = 0
	fleetSweepTo    = 20
)

var fleetSweep = fleet.FailureSweep{FromSlot: fleetSweepFrom, ToSlot: fleetSweepTo}

// fleetSeed is the seed of population k of a run.
func fleetSeed(seed uint64, k int) uint64 { return seed<<20 | uint64(k) }

// newPopulation configures population k with the given worker count.
func newPopulation(seed uint64, k, workers int) (*fleet.Runner, error) {
	return fleet.New(fleet.Config{
		Seed:         fleetSeed(seed, k),
		Population:   fleetPopulation,
		Params:       gen.DefaultParams(),
		Workers:      workers,
		FailureSweep: &fleetSweep,
	})
}

func reportBytes(rep *fleet.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := rep.WriteJSON(&buf, true)
	return buf.Bytes(), err
}

func runFleet(cfg runConfig) (*result, error) {
	t := &timed{failures: failures{stderr: cfg.stderr}}
	workers := runtime.NumCPU()
	// Set-up is what precedes the first network: configuring the first
	// population's runner and its engine.
	first, err := setupRepeated(t, func() (*fleet.Runner, error) { return newPopulation(cfg.seed, 1, workers) },
		func(*fleet.Runner) error { return nil })
	if err != nil {
		return nil, err
	}
	var heaps []float64
	var ref []byte
	t.begin(1 << 10)
	for k := 1; !t.due(cfg.seconds); k++ {
		r := first
		if k > 1 {
			if r, err = newPopulation(cfg.seed, k, workers); err != nil {
				return nil, err
			}
		}
		var rep *fleet.Report
		t.startRound()
		t.op(fleetPopulation, func() { rep, err = r.Run(context.Background()) })
		t.endRound(fleetPopulation)
		if err != nil {
			t.failed += fleetPopulation
			continue
		}
		t.failed += int64(rep.Aggregate.Failed)
		t.exclude(func() {
			// Each population's engine is dropped after its run, so the
			// live heap is read per population while its engine is still
			// referenced, and the median is reported.
			heaps = append(heaps, liveHeapMB())
			runtime.KeepAlive(r)
			if k == 1 {
				if ref, err = reportBytes(rep); err != nil {
					t.fail(err)
				}
			}
			if err := checkFleetReport(rep, fleetSweep); err != nil {
				t.fail(fmt.Errorf("population %d: %w", k, err))
			}
		})
	}
	t.end()
	t.liveMB = median(heaps)

	// The first population, run again on a fresh runner, must give the
	// same report byte for byte.
	r, err := newPopulation(cfg.seed, 1, workers)
	if err != nil {
		return nil, err
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		return nil, err
	}
	again, err := reportBytes(rep)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, ref) {
		t.fail(errors.New("fleet-failsweep: re-running population 1 changed its report"))
	}
	return t.result(), nil
}
