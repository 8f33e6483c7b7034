package lint

import (
	"go/ast"
	"go/types"
)

// WallClock forbids wall-clock time, global (unseeded) math/rand, and
// environment reads inside simulation packages. Simulated time must be
// a sim.Time the simulation advances and randomness must come from a
// seeded sim.Stream; anything else silently breaks run-to-run
// reproducibility and the kill/resume byte-identity guarantee. cmd/
// front-ends, examples, the batch/prof infrastructure, and _test.go
// files are exempt.
var WallClock = &Analyzer{
	Name:     "wallclock",
	Doc:      "forbids time.Now/global rand/os.Getenv in simulation packages",
	Suppress: "wallclock",
	Run:      runWallClock,
}

// wallClockExempt names internal packages that legitimately touch the
// host: the worker pool (timeouts, backoff), profiling lifecycle, the
// lint tooling itself, the HTTP service layer (request deadlines,
// Retry-After arithmetic, drain timeouts are wall-clock by nature —
// only the simulations the service runs stay deterministic), and the
// DSE campaign engine (retry backoff timers, progress/ETA reporting
// and the status file are host-time observability; the cells it runs
// remain deterministic simulations). cmd/ front-ends, including
// cmd/potsimd, are exempt wholesale via the internal/-only scope check
// in runWallClock.
var wallClockExempt = map[string]bool{
	"batch": true, "prof": true, "lint": true, "linttest": true,
	"service": true, "dse": true,
}

// forbiddenTime lists time package functions that read or schedule
// against the host clock. time.Duration/time.Time values themselves
// are fine — only the clock sources are banned.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand lists math/rand constructors that attach to an explicit
// source; everything else package-level draws from the global RNG.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 sources
}

// forbiddenOS lists environment reads: configuration must flow through
// explicit Config structs so a run is fully described by its inputs.
var forbiddenOS = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

func runWallClock(pass *Pass) error {
	if !isInternal(pass.Pkg.Path) || wallClockExempt[pathTail(pass.Pkg.Path)] {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch packageOf(info, sel) {
			case "time":
				if forbiddenTime[name] {
					pass.Reportf(sel.Pos(), "time.%s reads the host clock; simulation time must be a sim.Time the simulation advances", name)
				}
			case "math/rand", "math/rand/v2":
				// Types (rand.Rand, rand.Source) and methods on
				// explicitly-seeded generators are fine; only
				// package-level draw functions hit the global RNG.
				fn, isFunc := info.Uses[sel.Sel].(*types.Func)
				if isFunc && fn.Pkg() != nil && fn.Pkg().Path() == packageOf(info, sel) && !allowedRand[name] {
					pass.Reportf(sel.Pos(), "global math/rand (%s) is unseeded shared state; draw from a seeded sim.Stream", name)
				}
			case "os":
				if forbiddenOS[name] {
					pass.Reportf(sel.Pos(), "os.%s makes a run depend on the host environment; thread configuration through Config", name)
				}
			}
			return true
		})
	}
	return nil
}
