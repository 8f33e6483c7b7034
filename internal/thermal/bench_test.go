package thermal

import (
	"fmt"
	"testing"

	"potsim/internal/sim"
)

// BenchmarkAdvanceEpoch measures one 100us integration step of an 8x8 grid.
func BenchmarkAdvanceEpoch(b *testing.B) {
	g, err := NewGrid(DefaultConfig(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, g.Cores())
	for i := range p {
		p[i] = 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Advance(sim.Time(i+1)*100*sim.Microsecond, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalStep measures the raw forward-Euler kernel (one full
// MaxStepS substep, no Advance bookkeeping) across grid sizes. The
// 1024-core point is the large-mesh scaling headline.
func BenchmarkThermalStep(b *testing.B) {
	for _, side := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("cores=%d", side*side), func(b *testing.B) {
			g, err := NewGrid(DefaultConfig(side, side))
			if err != nil {
				b.Fatal(err)
			}
			p := make([]float64, g.Cores())
			for i := range p {
				p[i] = 0.5
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.step(g.cfg.MaxStepS, p)
			}
		})
	}
}
