package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamIndependence(t *testing.T) {
	r := NewRNG(42)
	a := r.Stream("workload")
	b := r.Stream("faults")
	// Streams with different names must not be identical.
	same := true
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("streams with different names produced identical output")
	}
}

func TestStreamReproducible(t *testing.T) {
	seq := func() []uint64 {
		s := NewRNG(123).Stream("x")
		out := make([]uint64, 8)
		for i := range out {
			out[i] = s.Uint64()
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not reproducible at draw %d", i)
		}
	}
}

func TestStreamSeedSensitivity(t *testing.T) {
	a := NewRNG(1).Stream("x")
	b := NewRNG(2).Stream("x")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("adjacent seeds produced identical streams")
	}
}

func TestExpMean(t *testing.T) {
	s := NewRNG(7).Stream("exp")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Errorf("Exp mean = %v, want ~3.0", mean)
	}
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Error("Exp with non-positive mean should return 0")
	}
}

func TestUniformBounds(t *testing.T) {
	s := NewRNG(9).Stream("uni")
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
	if s.Uniform(5, 5) != 5 || s.Uniform(6, 5) != 6 {
		t.Error("degenerate Uniform should return lo")
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := NewRNG(13).Stream("bern")
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) hit rate = %v", p)
	}
}

func TestIntBetween(t *testing.T) {
	s := NewRNG(17).Stream("int")
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntBetween(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntBetween(3,6) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("IntBetween never produced %d", v)
		}
	}
	if s.IntBetween(5, 5) != 5 || s.IntBetween(7, 2) != 7 {
		t.Error("degenerate IntBetween should return lo")
	}
}

// Property: derived streams are a pure function of (seed, name).
func TestStreamDerivationProperty(t *testing.T) {
	prop := func(seed uint64, name string) bool {
		a := NewRNG(seed).Stream(name).Uint64()
		b := NewRNG(seed).Stream(name).Uint64()
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Satellite contract for checkpointing: a stream restored from State()
// continues the exact sequence across every distribution helper, not just
// raw words.
func TestStreamStateRoundTrip(t *testing.T) {
	s := NewRNG(42).Stream("ckpt")
	// Burn a mixed prefix so the saved state is mid-sequence.
	for i := 0; i < 257; i++ {
		s.Exp(3.0)
		s.IntBetween(0, 1<<20)
		s.Uint64()
	}
	saved := s.State()
	type draw struct {
		e, u float64
		i    int
		b    bool
		raw  uint64
	}
	var want [64]draw
	for i := range want {
		want[i] = draw{
			e: s.Exp(2.5), u: s.Uniform(-1, 7), i: s.IntBetween(0, 1000),
			b: s.Bernoulli(0.5), raw: s.Uint64(),
		}
	}
	for name, r := range map[string]*Stream{
		"SetState":        NewRNG(42).Stream("ckpt"),
		"StreamFromState": StreamFromState(saved),
	} {
		if name == "SetState" {
			r.SetState(saved)
		}
		for i := range want {
			got := draw{
				e: r.Exp(2.5), u: r.Uniform(-1, 7), i: r.IntBetween(0, 1000),
				b: r.Bernoulli(0.5), raw: r.Uint64(),
			}
			if got != want[i] {
				t.Fatalf("%s: draw %d diverged: got %+v want %+v", name, i, got, want[i])
			}
		}
	}
}

// The exported Source must behave as a plain value: equal states yield
// equal futures, and State reflects every draw.
func TestSourceStateAdvances(t *testing.T) {
	s := NewRNG(7).Stream("adv")
	before := s.State()
	s.Uint64()
	if s.State() == before {
		t.Fatal("State did not advance after a draw")
	}
}
