// Package sim provides the simulated time base and the seeded
// random-number streams that underpin the manycore model.
//
// All simulated time is kept as an integer number of nanoseconds (sim.Time)
// so that the ordering of arrivals and epochs is exact and runs are
// bit-reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. Using an integer type keeps time comparisons exact across
// platforms; use the Duration helpers below when converting.
type Time int64

// Common durations expressed in simulation time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromDuration converts a standard library duration to a Time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// String renders the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}
