// Package exemptpkg is analyzed under potsim/internal/core, outside
// the drain-lifecycle packages, so goroutines pass unchecked.
package exemptpkg

import "fmt"

func fireAndForget() {
	go func() {
		fmt.Sprintln("core is outside the drain-lifecycle packages")
	}()
}
