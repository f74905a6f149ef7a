package main

import (
	"fmt"
	"math"

	"wirelesshart/internal/spec"
)

// The oracle recomputes a path's measures without the program's solver:
// it never calls pathmodel, dtmc or linalg. It walks the reporting
// interval slot by slot and carries the probability mass of the message
// as a vector over "hops done", which is all the state Algorithm 1's
// (age, hops done) states hold once the age is the loop counter. Link
// availabilities come from the spec's own fields, not from the link
// package.

// Paper constants the oracle resolves links with (Section III).
const (
	oracleRecoveryProb = 0.9
	oracleMessageBits  = 1016
	oracleDefaultBER   = 2e-4
	oracleSlotMS       = 10.0
	oracleDefaultIs    = 4
)

// oracleHop is one hop of a path: its two-state link (p_fl, p_rc) and the
// window failure injected on it, if any.
type oracleHop struct {
	pfl, prc float64
	// window marks a link forced DOWN in uplink slots [from, to) of each
	// reporting interval, relaxing back as pi*(1 - lambda^(t-to+1)).
	window   bool
	from, to int
}

// avail is the probability that the hop's link is UP in uplink slot t
// (1-based, counted from the start of the reporting interval).
func (h oracleHop) avail(t int) float64 {
	pi := 1.0
	if h.pfl > 0 {
		pi = h.prc / (h.prc + h.pfl)
	}
	switch {
	case !h.window || t < h.from:
		return pi
	case t < h.to:
		return 0
	default:
		lambda := 1 - h.pfl - h.prc
		return pi * (1 - math.Pow(lambda, float64(t-h.to+1)))
	}
}

// oracleResult is the oracle's solution of one path.
type oracleResult struct {
	// cycles[i] is the probability of reaching the gateway in cycle i+1.
	cycles []float64
	// ages[i] is the arrival age of cycle i+1 in uplink slots.
	ages []int
	// attempts is the expected number of transmission attempts.
	attempts float64
	fup, is  int
}

// oracleSolve runs the per-slot recursion for a path whose hop h
// transmits in frame slot slots[h] of every Fup-slot super-frame, over Is
// super-frames, dropping the message once its age reaches ttl (0 means
// Is*Fup).
func oracleSolve(hops []oracleHop, slots []int, fup, is, ttl int) (oracleResult, error) {
	n := len(slots)
	if n == 0 || len(hops) != n {
		return oracleResult{}, fmt.Errorf("oracle: %d hops for %d slots", len(hops), n)
	}
	if fup < 1 || is < 1 {
		return oracleResult{}, fmt.Errorf("oracle: bad frame %d or interval %d", fup, is)
	}
	for h, s := range slots {
		if s < 1 || s > fup || (h > 0 && s <= slots[h-1]) {
			return oracleResult{}, fmt.Errorf("oracle: slots %v not increasing within [1,%d]", slots, fup)
		}
	}
	horizon := is * fup
	if ttl == 0 {
		ttl = horizon
	}
	if ttl < 0 || ttl > horizon {
		return oracleResult{}, fmt.Errorf("oracle: ttl %d out of [0,%d]", ttl, horizon)
	}
	res := oracleResult{fup: fup, is: is}
	last := slots[n-1]
	for i := 0; i < is && last+i*fup <= ttl; i++ {
		res.ages = append(res.ages, last+i*fup)
	}
	res.cycles = make([]float64, len(res.ages))

	// mass[h] is the probability that the message is alive at the current
	// age with h hops done.
	mass := make([]float64, n)
	mass[0] = 1
	for t := 0; t < ttl; t++ {
		next := t + 1
		frameSlot := (next-1)%fup + 1
		// Slots are strictly increasing, so at most one hop transmits in
		// any frame slot and the update can be made in place.
		for h := 0; h < n; h++ {
			if slots[h] != frameSlot || mass[h] == 0 {
				continue
			}
			m := mass[h]
			p := hops[h].avail(next)
			res.attempts += m
			mass[h] = m * (1 - p)
			if h == n-1 {
				res.cycles[(next-last)/fup] += m * p
			} else {
				mass[h+1] += m * p
			}
			break
		}
	}
	return res, nil
}

// reach is R: the probability of arriving within the reporting interval.
func (r oracleResult) reach() float64 {
	var s float64
	for _, p := range r.cycles {
		s += p
	}
	return s
}

// delayMS is the wall-clock delay of an arrival in cycle i+1:
// (a_i + i*Fdown) * 10 ms.
func (r oracleResult) delayMS(i, fdown int) float64 {
	return float64(r.ages[i]+i*fdown) * oracleSlotMS
}

// meanDelayMS is E[tau] over delivered messages; zero when R is zero.
func (r oracleResult) meanDelayMS(fdown int) float64 {
	R := r.reach()
	if R <= 0 {
		return 0
	}
	var s float64
	for i, p := range r.cycles {
		s += r.delayMS(i, fdown) * p
	}
	return s / R
}

// utilization is the path's share of the interval's slots spent on
// transmission attempts.
func (r oracleResult) utilization() float64 {
	return r.attempts / float64(r.is*r.fup)
}

// oracleLink resolves a declared link to the oracle's hop from the spec's
// physical fields, in the spec's priority order: p_fl, BER, availability,
// then the network's default BER. Eb/N0 and fading links and permanent
// failures are outside the oracle; no workload declares them.
func oracleLink(s *spec.Spec, l spec.Link) (oracleHop, error) {
	bits := s.MessageBits
	if bits == 0 {
		bits = oracleMessageBits
	}
	h := oracleHop{prc: oracleRecoveryProb}
	if l.PRc != nil {
		h.prc = *l.PRc
	}
	berPfl := func(ber float64) float64 { return 1 - math.Pow(1-ber, float64(bits)) }
	switch {
	case l.Fading != nil || l.EbN0 != nil:
		return oracleHop{}, fmt.Errorf("oracle: link %s-%s: Eb/N0 and fading links are not supported", l.A, l.B)
	case l.PFl != nil:
		h.pfl = *l.PFl
	case l.BER != nil:
		h.pfl = berPfl(*l.BER)
	case l.Availability != nil:
		h.pfl = h.prc * (1 - *l.Availability) / *l.Availability
	default:
		ber := oracleDefaultBER
		if s.DefaultBER != nil {
			ber = *s.DefaultBER
		}
		h.pfl = berPfl(ber)
	}
	if f := l.Failure; f != nil {
		if f.Kind != "window" {
			return oracleHop{}, fmt.Errorf("oracle: link %s-%s: %q failures are not supported", l.A, l.B, f.Kind)
		}
		h.window, h.from, h.to = true, f.FromSlot, f.ToSlot
	}
	return h, nil
}

// linkKey names an undirected link.
func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b
}

// oracleLinks resolves every declared link of s to the oracle's hop,
// keyed by linkKey.
func oracleLinks(s *spec.Spec) (map[string]oracleHop, error) {
	links := make(map[string]oracleHop, len(s.Links))
	for _, l := range s.Links {
		h, err := oracleLink(s, l)
		if err != nil {
			return nil, err
		}
		links[linkKey(l.A, l.B)] = h
	}
	return links, nil
}

// routeHops looks up each hop of a route (node names from the source to
// the gateway) in the resolved links.
func routeHops(links map[string]oracleHop, route []string) ([]oracleHop, error) {
	hops := make([]oracleHop, 0, len(route)-1)
	for i := 0; i+1 < len(route); i++ {
		h, ok := links[linkKey(route[i], route[i+1])]
		if !ok {
			return nil, fmt.Errorf("oracle: route %v uses undeclared link %s-%s", route, route[i], route[i+1])
		}
		hops = append(hops, h)
	}
	return hops, nil
}

// oracleRouteHops resolves each hop of a route to its declared link.
func oracleRouteHops(s *spec.Spec, route []string) ([]oracleHop, error) {
	links, err := oracleLinks(s)
	if err != nil {
		return nil, err
	}
	return routeHops(links, route)
}

// specIs is the spec's reporting interval with the default applied.
func specIs(s *spec.Spec) int {
	if s.ReportingInterval == 0 {
		return oracleDefaultIs
	}
	return s.ReportingInterval
}

// specFdown is the spec's downlink frame, Fup unless set.
func specFdown(s *spec.Spec, fup int) int {
	if s.Fdown == 0 {
		return fup
	}
	return s.Fdown
}
