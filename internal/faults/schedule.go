package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"webfountain/internal/metrics"
)

// Schedule composes faults across layers into one deterministic chaos
// timeline: a seeded sequence of phases, each activating a fault mix
// (network drops and delays, disk faults, worker stalls) on whatever
// injector-wrapped surfaces the test wired up. The timeline itself is a
// pure function of the seed — NewSchedule(seed, d) always builds the
// same phases — so a failing chaos run names its seed and is re-run
// with the identical storm.
//
// Two layers of determinism compose here: the schedule fixes *when*
// each fault mix is active, and the injector's single seeded PRNG fixes
// *which* operations fault within a mix. A sequential workload replays
// byte-for-byte; a concurrent one replays the same storm shape with
// scheduling-dependent placement (see the package comment).
type Schedule struct {
	// Seed generated this timeline.
	Seed int64
	// Phases run in order, each switching the injector's config.
	Phases []Phase
}

// Phase is one window of the chaos timeline.
type Phase struct {
	// Name labels the archetype for logs and failure reports.
	Name string
	// Duration is how long the phase's fault mix stays active.
	Duration time.Duration
	// Config is the injector fault mix active during the phase.
	Config Config
}

// phase archetypes: each models one production failure pattern. Rates
// are kept below the levels that would starve a retrying workload —
// chaos that nothing survives proves nothing.
var archetypes = []struct {
	name string
	cfg  func(rng *rand.Rand) Config
}{
	{"quiet", func(*rand.Rand) Config { return Config{} }},
	{"net-flaky", func(rng *rand.Rand) Config {
		return Config{
			DropRate:  0.02 + 0.04*rng.Float64(),
			DelayRate: 0.05 + 0.10*rng.Float64(),
			Delay:     time.Duration(1+rng.Intn(3)) * time.Millisecond,
		}
	}},
	{"net-corrupt", func(rng *rand.Rand) Config {
		return Config{
			CorruptRate: 0.02 + 0.04*rng.Float64(),
			DelayRate:   0.05,
			Delay:       time.Millisecond,
		}
	}},
	{"worker-stall", func(rng *rand.Rand) Config {
		return Config{
			DelayRate: 0.20 + 0.20*rng.Float64(),
			Delay:     time.Duration(4+rng.Intn(8)) * time.Millisecond,
		}
	}},
	{"call-transient", func(rng *rand.Rand) Config { // vinci.Client calls fail, retryably
		return Config{TransientRate: 0.10 + 0.20*rng.Float64()}
	}},
	{"disk-degraded", func(rng *rand.Rand) Config {
		return Config{
			TornWriteRate: 0.05 + 0.10*rng.Float64(),
			SyncFailRate:  0.02 + 0.05*rng.Float64(),
		}
	}},
}

var (
	scheduleTransitions = metrics.Default().Counter("faults.schedule.transitions")
	schedulePhase       = metrics.Default().Gauge("faults.schedule.phase")
)

// NewSchedule builds a deterministic timeline of at least total duration
// from the seed. Phases alternate quiet windows with fault archetypes so
// the workload sees both storms and room to recover.
func NewSchedule(seed int64, total time.Duration) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed}
	var covered time.Duration
	for i := 0; covered < total; i++ {
		var name string
		var cfg Config
		if i%2 == 0 {
			// Even slots are always a fault archetype, odd slots draw
			// freely (and may be quiet): storms never fully saturate the
			// timeline.
			a := archetypes[1+rng.Intn(len(archetypes)-1)]
			name, cfg = a.name, a.cfg(rng)
		} else {
			a := archetypes[rng.Intn(len(archetypes))]
			name, cfg = a.name, a.cfg(rng)
		}
		d := time.Duration(10+rng.Intn(40)) * time.Millisecond
		s.Phases = append(s.Phases, Phase{
			Name:     fmt.Sprintf("%02d-%s", i, name),
			Duration: d,
			Config:   cfg,
		})
		covered += d
	}
	return s
}

// Total is the timeline's summed duration.
func (s *Schedule) Total() time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Duration
	}
	return d
}

// String renders the timeline compactly.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule(seed=%d, %d phases, %v)", s.Seed, len(s.Phases), s.Total())
}

// Start drives the injector through the timeline in real time: the
// injector's config is swapped at each phase boundary, and reset to
// quiet when the timeline ends or stop is called. stop blocks until the
// driver goroutine has exited; it is safe to call exactly once.
func (s *Schedule) Start(in *Injector) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		timer := time.NewTimer(0)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
		for i, p := range s.Phases {
			in.SetConfig(p.Config)
			schedulePhase.Set(int64(i))
			scheduleTransitions.Inc()
			timer.Reset(p.Duration)
			select {
			case <-done:
				return
			case <-timer.C:
			}
		}
		// Timeline exhausted: go quiet and wait for stop.
		in.SetConfig(Config{})
		<-done
	}()
	return func() {
		close(done)
		wg.Wait()
		in.SetConfig(Config{})
		schedulePhase.Set(-1)
	}
}
