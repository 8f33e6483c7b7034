// Package sbst models software-based self-test (SBST) routines: phased
// test programs with per-phase cycle counts, switching activity and fault
// coverage, executed at a chosen DVFS operating point, compacting their
// test responses into a MISR signature that is compared against a golden
// value. Execution supports the non-intrusive abort the paper requires:
// a test yields its core immediately when the mapper claims it.
//
// The MISR is the CRC-32/IEEE register (reflected polynomial 0xEDB88320)
// seeded with all-ones and without the final inversion, so one response
// word is absorbed by four lookups into the standard library's CRC table.
package sbst

import "hash/crc32"

// MISR is a 32-bit multiple-input signature register: a Galois LFSR that
// absorbs one response word per clock. It is the classical response
// compactor used by SBST and logic BIST; a fault that flips any response
// bit yields a different final signature except for aliasing, whose
// probability is ~2^-32.
type MISR struct {
	state uint32
}

// DefaultPolynomial is the CRC-32/IEEE polynomial in Galois form, a
// primitive polynomial suitable for signature analysis.
const DefaultPolynomial uint32 = crc32.IEEE

// NewMISR returns a signature register seeded with all-ones (the
// conventional non-zero seed) using the default polynomial.
func NewMISR() *MISR {
	return &MISR{state: 0xFFFFFFFF}
}

// Absorb folds one test-response word into the signature: the word is
// XORed into the state, which then shifts 32 times. crc32.IEEETable is
// the 8-shift table of DefaultPolynomial, so four lookups do the shifts.
func (m *MISR) Absorb(word uint32) {
	s, t := m.state^word, crc32.IEEETable
	s = s>>8 ^ t[byte(s)]
	s = s>>8 ^ t[byte(s)]
	s = s>>8 ^ t[byte(s)]
	m.state = s>>8 ^ t[byte(s)]
}

// Signature returns the current signature value.
func (m *MISR) Signature() uint32 { return m.state }

// ResponseGenerator produces the deterministic pseudo-random test-response
// stream of a fault-free core executing a routine phase: an xorshift32
// generator seeded from the routine and phase identities, mirroring how
// SBST responses are a fixed function of the test program.
type ResponseGenerator struct {
	state uint32
}

// NewResponseGenerator seeds the response stream for (routine, phase, level).
// Different levels exercise different critical paths, so responses differ.
func NewResponseGenerator(routineID, phase, level int) *ResponseGenerator {
	seed := uint32(2166136261)
	for _, v := range []int{routineID, phase, level} {
		seed ^= uint32(v + 1)
		seed *= 16777619
	}
	if seed == 0 {
		seed = 1
	}
	return &ResponseGenerator{state: seed}
}

// Next returns the next fault-free response word.
func (g *ResponseGenerator) Next() uint32 {
	x := g.state
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	g.state = x
	return x
}
