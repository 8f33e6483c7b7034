package sim

import "testing"

// BenchmarkStreamDraw measures derived-stream draw cost.
func BenchmarkStreamDraw(b *testing.B) {
	s := NewRNG(1).Stream("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Exp(1.0)
	}
}
