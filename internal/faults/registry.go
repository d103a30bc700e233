package faults

import (
	"math"
	"sort"
	"time"

	"mpichgq/internal/sim"
)

// registry maps scenario names to builders. Builders (not instances)
// are stored so each Build returns a fresh scenario. The canned
// scenarios run against the GARNET testbed's link and node names
// (package garnet); times are virtual seconds from the start of the
// run, and experiments that scale time build their own scenarios
// instead.
var registry = map[string]func() *Scenario{
	"wan-flap": func() *Scenario {
		return NewScenario("wan-flap").
			Flap("edge1-core", 20*time.Second, 32*time.Second)
	},
	"core-outage": func() *Scenario {
		return NewScenario("core-outage").
			NodeDown(20*time.Second, "core").
			NodeUp(32*time.Second, "core")
	},
	"lossy-wan": func() *Scenario {
		return NewScenario("lossy-wan").
			Loss("edge1-core", 10*time.Second, 40*time.Second, 0.02)
	},
}

// Build returns a fresh instance of the named scenario, or false.
func Build(name string) (*Scenario, bool) {
	b, ok := registry[name]
	if !ok {
		return nil, false
	}
	return b(), true
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RankMTBF builds a randomized rank-failure scenario: each named rank
// fails at exponentially distributed intervals with the given mean
// time between failures, and restarts repair later. Failures whose
// repair would land past horizon are not scheduled, so the job always
// ends with every scheduled crash repaired. Draws come from rng only,
// so a fixed seed replays the same failure schedule. Apply with
// Scenario.ApplyTargets and a RankResolver (an mpi.Job).
func RankMTBF(rng *sim.RNG, ranks []string, mtbf, repair, horizon time.Duration) *Scenario {
	s := NewScenario("rank-mtbf")
	if mtbf <= 0 {
		return s
	}
	for _, rank := range ranks {
		t := time.Duration(0)
		for {
			// Exponential inter-failure gap with mean mtbf. 1-U keeps the
			// argument in (0,1].
			gap := time.Duration(-float64(mtbf) * math.Log(1-rng.Float64()))
			t += gap
			if t+repair >= horizon {
				break
			}
			s.RankCrash(t, rank)
			s.RankRestart(t+repair, rank)
			t += repair
		}
	}
	return s
}

// RandomScenario builds a randomized chaos scenario over the given
// links: n fault cycles — link flaps, loss windows, corruption
// windows — placed in [0, horizon) and all repaired by horizon, so
// the network always ends healthy. Draws come from rng only, so a
// fixed seed replays the same scenario.
func RandomScenario(rng *sim.RNG, links []string, n int, horizon time.Duration) *Scenario {
	s := NewScenario("random")
	for i := 0; i < n; i++ {
		link := links[rng.Intn(len(links))]
		start := time.Duration(rng.Float64() * 0.7 * float64(horizon))
		dur := time.Duration((0.05 + 0.15*rng.Float64()) * float64(horizon))
		end := start + dur
		if end > horizon {
			end = horizon
		}
		switch rng.Intn(3) {
		case 0:
			s.Flap(link, start, end)
		case 1:
			s.Loss(link, start, end, 0.01+0.09*rng.Float64())
		case 2:
			s.Corrupt(link, start, end, 0.01+0.09*rng.Float64())
		}
	}
	return s
}
