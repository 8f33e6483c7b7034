package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is the root of the simulation's random-number streams. Each named
// subsystem derives an independent deterministic stream from the root seed
// so that, for example, adding one extra draw to the workload generator
// does not perturb the fault injector.
type RNG struct {
	seed uint64
}

// NewRNG returns a stream factory rooted at seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{seed: seed}
}

// splitmix64 is the standard seed-expansion mix; it guarantees derived
// streams are decorrelated even for adjacent seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is the generator behind every Stream: a splitmix64 counter whose
// entire state is one word. math/rand's default source hides its state,
// which would make checkpointing a simulation impossible; this one trades
// nothing the simulator needs (splitmix64 passes BigCrush) for a state
// that can be saved and restored exactly.
type Source struct {
	state uint64
}

// Uint64 advances the counter by the golden-ratio increment and returns
// the mixed output.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 satisfies math/rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed satisfies math/rand.Source.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Stream derives an independent deterministic stream for the given name.
func (r *RNG) Stream(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return StreamFromState(splitmix64(r.seed ^ h.Sum64()))
}

// StreamFromState reconstructs a stream at an exact point in its sequence,
// typically a state captured by State before a checkpoint.
func StreamFromState(state uint64) *Stream {
	src := &Source{state: state}
	return &Stream{Rand: rand.New(src), src: src}
}

// Stream wraps math/rand with the distributions the simulator needs.
type Stream struct {
	*rand.Rand
	src *Source
}

// State returns the stream's complete generator state. None of the
// distribution helpers below touch rand.Rand's buffered Read path, so
// this single word captures the stream exactly: a stream restored from
// it continues the identical draw sequence.
func (s *Stream) State() uint64 { return s.src.state }

// SetState rewinds or advances the stream to a previously captured state.
func (s *Stream) SetState(state uint64) { s.src.state = state }

// Exp draws an exponentially distributed value with the given mean.
// A zero or negative mean yields zero, which callers use to disable a
// stochastic process.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.ExpFloat64() * mean
}

// Uniform draws from [lo, hi). It tolerates lo >= hi by returning lo.
func (s *Stream) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + s.Float64()*(hi-lo)
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// IntBetween draws an integer in [lo, hi] inclusive.
func (s *Stream) IntBetween(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + s.Intn(hi-lo+1)
}
