package potsim_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds vets bench/potbench, the nested benchmark
// module, against this checkout. `go test ./...` in the root module never
// compiles it, so without this test a change that deletes or renames an
// export the benchmark uses fails only when the benchmark is built.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench/potbench"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/potbench: %v\n%s", err, out)
	}
}
