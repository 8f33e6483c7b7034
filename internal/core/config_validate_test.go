package core

import (
	"strings"
	"testing"
)

// TestValidateRejectsUnaddressableMeshes pins the fail-fast envelope:
// geometries and knobs the mapper/NoC/memory subsystems cannot address
// must be rejected by Config.Validate with an actionable message, not
// discovered as a panic or a silently wrong model deep inside core.New.
func TestValidateRejectsUnaddressableMeshes(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{
			name:    "zero width",
			mutate:  func(c *Config) { c.Width = 0 },
			wantErr: "invalid mesh 0x8",
		},
		{
			name:    "negative height",
			mutate:  func(c *Config) { c.Height = -4 },
			wantErr: "invalid mesh 8x-4",
		},
		{
			name:    "width beyond supported maximum",
			mutate:  func(c *Config) { c.Width = 65 },
			wantErr: "mesh 65x8 exceeds the supported maximum 64x64",
		},
		{
			name:    "height beyond supported maximum",
			mutate:  func(c *Config) { c.Height = 128 },
			wantErr: "mesh 8x128 exceeds the supported maximum 64x64",
		},
		{
			name: "mesh smaller than largest library graph",
			mutate: func(c *Config) {
				c.Width, c.Height = 3, 4
				c.MemControllers = 2
			},
			wantErr: "mesh 3x4 too small for the largest library graph",
		},
		{
			name: "memory controllers on coinciding corners",
			mutate: func(c *Config) {
				c.Width, c.Height = 1, 16
			},
			wantErr: "4 memory controllers need a mesh of at least 2x2 (corners coincide on 1x16)",
		},
		{
			name: "torus with a length-1 dimension",
			mutate: func(c *Config) {
				c.Width, c.Height = 1, 16
				c.MemControllers = 0
				c.NoCTopology = "torus"
			},
			wantErr: "torus topology needs both mesh dimensions >= 2, got 1x16",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the config, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateAcceptsLargeMeshes pins the other side of the envelope:
// the geometries the large-mesh experiments rely on (32x32 and the
// 64x64 maximum) pass validation and assemble.
func TestValidateAcceptsLargeMeshes(t *testing.T) {
	for _, side := range []int{32, 64} {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = side, side
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%dx%d: Validate() = %v, want nil", side, side, err)
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%dx%d: New() = %v, want nil", side, side, err)
		}
		if got := sys.therm.Cores(); got != side*side {
			t.Fatalf("%dx%d: assembled %d thermal nodes, want %d", side, side, got, side*side)
		}
	}
}
