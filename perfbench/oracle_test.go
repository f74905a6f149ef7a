package main

import (
	"math"
	"testing"
)

// TestOracleSectionVA pins the oracle to the paper's Section V-A example:
// a three-hop path in slots 3, 6, 7 of a 7-slot frame, pi(up) = 0.75,
// Is = 4 (Fig. 6 and the E[tau] quoted with it).
func TestOracleSectionVA(t *testing.T) {
	avail := 0.75
	h := oracleHop{prc: oracleRecoveryProb, pfl: oracleRecoveryProb * (1 - avail) / avail}
	r, err := oracleSolve([]oracleHop{h, h, h}, []int{3, 6, 7}, 7, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	if len(r.cycles) != len(want) {
		t.Fatalf("cycles = %v, want %d of them", r.cycles, len(want))
	}
	for i, w := range want {
		if math.Abs(r.cycles[i]-w) > 5e-5 {
			t.Errorf("cycle %d = %.6f, want %v", i+1, r.cycles[i], w)
		}
	}
	if got := r.reach(); math.Abs(got-0.9624) > 5e-5 {
		t.Errorf("R = %.6f, want 0.9624", got)
	}
	if got := r.meanDelayMS(7); math.Abs(got-190.8) > 0.05 {
		t.Errorf("E[tau] = %.3f ms, want 190.8", got)
	}
	for i, a := range []int{7, 14, 21, 28} {
		if r.ages[i] != a {
			t.Errorf("arrival age of cycle %d = %d, want %d", i+1, r.ages[i], a)
		}
	}
}

// TestOracleOneHopWindow works a window failure out by hand. One hop in
// slot 1 of a 2-slot frame, Is = 3, p_fl = 0.1 and p_rc = 0.4, so
// pi = 0.8 and lambda = 0.5. The link is forced DOWN in slots [1, 3):
//
//	cycle 1, slot 1: availability 0, nothing arrives;
//	cycle 2, slot 3: 0.8*(1-0.5^1) = 0.4, P = 0.4;
//	cycle 3, slot 5: 0.8*(1-0.5^3) = 0.7, P = 0.6*0.7 = 0.42.
//
// R = 0.82. With Fdown = Fup = 2 the delays are (3+2)*10 = 50 ms and
// (5+4)*10 = 90 ms, so E[tau] = (0.4*50 + 0.42*90)/0.82 ms. Attempts are
// made in all three cycles with mass 1, 1 and 0.6.
func TestOracleOneHopWindow(t *testing.T) {
	h := oracleHop{pfl: 0.1, prc: 0.4, window: true, from: 1, to: 3}
	r, err := oracleSolve([]oracleHop{h}, []int{1}, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-15
	want := []float64{0, 0.4, 0.42}
	for i, w := range want {
		if math.Abs(r.cycles[i]-w) > tol {
			t.Errorf("cycle %d = %v, want %v", i+1, r.cycles[i], w)
		}
	}
	if got := r.reach(); math.Abs(got-0.82) > tol {
		t.Errorf("R = %v, want 0.82", got)
	}
	if got, w := r.meanDelayMS(2), (0.4*50+0.42*90)/0.82; math.Abs(got-w) > 1e-12 {
		t.Errorf("E[tau] = %v, want %v", got, w)
	}
	if math.Abs(r.attempts-2.6) > tol {
		t.Errorf("attempts = %v, want 2.6", r.attempts)
	}
}

// TestOracleTTL checks that a TTL shorter than the interval drops the
// later cycles and discards what has not arrived by then.
func TestOracleTTL(t *testing.T) {
	h := oracleHop{prc: 0.9, pfl: 0.1}
	r, err := oracleSolve([]oracleHop{h}, []int{2}, 4, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Arrival ages 2 and 6 fit within the TTL; 10 and 14 do not.
	if len(r.cycles) != 2 || r.ages[1] != 6 {
		t.Fatalf("cycles %v at ages %v, want two up to age 6", r.cycles, r.ages)
	}
	if math.Abs(r.cycles[1]-0.9*0.1) > 1e-15 {
		t.Errorf("cycle 2 = %v, want 0.09", r.cycles[1])
	}
}
