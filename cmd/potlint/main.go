// Command potlint runs potsim's custom determinism/hot-path/durability
// analyzers (internal/lint) over Go packages.
//
// Standalone (loads packages itself via the go tool, no network):
//
//	potlint ./...
//	potlint -checks maporder,wallclock ./internal/...
//	potlint -json ./... > findings.json
//
// There is no go vet driver: every analyzer skips _test.go files, and
// test files are all that vet's per-package units add to a standalone
// run.
//
// Exit status: 0 clean, 1 findings or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"potsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("potlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checks   = fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		sarifOut = fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 on stdout (for CI annotations)")
		listOnly = fs.Bool("analyzers", false, "list analyzers and exit")
		dir      = fs.String("C", "", "change to this directory before loading packages")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *listOnly {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.Select(*checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	pkgs, err := lint.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	switch {
	case *sarifOut:
		root := *dir
		if root == "" {
			root, _ = os.Getwd()
		}
		if abs, err := filepath.Abs(root); err == nil {
			root = abs
		}
		if err := writeSARIF(stdout, diags, root); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "potlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
