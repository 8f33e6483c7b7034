package lint

import (
	"go/ast"
)

// AtomicWrite checks that durability-bearing packages never write files
// with the raw os primitives. A crash between os.WriteFile's truncate
// and its final write leaves a half-written file that a resume will
// happily load; checkpoint.WriteFileAtomic (temp file, fsync, rename,
// directory fsync) and the journal append API exist precisely
// so no durable artifact is ever observable half-written.
//
// Flagged calls: os.WriteFile, os.Create, os.Rename. os.OpenFile and
// os.CreateTemp stay legal — they are the building blocks the journal
// append path and WriteFileAtomic itself are made of. The one
// legitimate os.Rename in the tree (inside WriteFileAtomic, where it IS
// the atomicity mechanism) carries a justified //potlint:rawwrite.
var AtomicWrite = &Analyzer{
	Name:     "atomicwrite",
	Doc:      "flags raw os file writes in durability-bearing packages",
	Suppress: "rawwrite",
	Run:      runAtomicWrite,
}

// atomicWritePkgs are the package-path tails whose files are durable
// artifacts: checkpoints, journals, result stores, experiment tables,
// and the daemon's on-disk state. cmd/dse and cmd/experiments write the
// same artifacts from the front end, so their tails are gated too.
var atomicWritePkgs = map[string]bool{
	"checkpoint":  true,
	"service":     true,
	"dse":         true,
	"results":     true,
	"expt":        true,
	"batch":       true,
	"potsimd":     true,
	"experiments": true,
}

func runAtomicWrite(pass *Pass) error {
	if !atomicWritePkgs[pathTail(pass.Pkg.Path)] {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
				return true
			}
			switch fn.Name() {
			case "WriteFile":
				pass.Reportf(call.Pos(), "os.WriteFile in durable package %s is not crash-atomic; route through checkpoint.WriteFileAtomic or the journal API, or justify with //potlint:rawwrite <why>", pathTail(pass.Pkg.Path))
			case "Create":
				pass.Reportf(call.Pos(), "os.Create in durable package %s truncates in place; route through checkpoint.WriteFileAtomic or the journal API, or justify with //potlint:rawwrite <why>", pathTail(pass.Pkg.Path))
			case "Rename":
				pass.Reportf(call.Pos(), "raw os.Rename in durable package %s bypasses the fsync discipline of checkpoint.WriteFileAtomic; use it (or justify with //potlint:rawwrite <why>)", pathTail(pass.Pkg.Path))
			}
			return true
		})
	}
	return nil
}
