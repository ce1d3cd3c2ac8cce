package conform

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/harness"
)

// RunDifferential runs app at the corpus scale under every protocol
// that implements it and asserts identical application-visible memory
// semantics (final per-processor observation histories, coherent
// memory contents, and per-barrier-epoch checkpoints where the barrier
// structure matches). Timing differs wildly across the systems — that
// is the paper's point — but what the program observes must not.
//
// opt (Tracer unset) applies to every Typhoon-based system in the
// matrix; DirNNB has no Typhoon system to mutate and runs with the zero
// options, so a handler bug shows up as Typhoon runs diverging from the
// hardware reference.
func RunDifferential(app string, opt harness.DiffOptions) error {
	var results []harness.DiffObservation
	for _, sys := range harness.DiffSystemsFor(app) {
		o := opt
		if sys == harness.SysDirNNB {
			o = harness.DiffOptions{}
		}
		obs, err := harness.RunObserved(Pair{App: app, System: sys}.Point(), o)
		if err != nil {
			return fmt.Errorf("conform: differential %s under %s: %w", app, sys, err)
		}
		results = append(results, obs)
	}
	return harness.CompareObservations(results)
}
