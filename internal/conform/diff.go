package conform

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// DiffMutation injects a protocol bug into the Typhoon-based runs of a
// differential matrix — the suite's negative-test hook.
type DiffMutation struct {
	Mutate     func(*typhoon.System)
	SkipVerify bool
}

// RunDifferential runs app at the corpus scale under every protocol
// that implements it and asserts identical application-visible memory
// semantics (final per-processor observation histories, coherent
// memory contents, and per-barrier-epoch checkpoints where the barrier
// structure matches). Timing differs wildly across the systems — that
// is the paper's point — but what the program observes must not.
//
// mut, when non-nil, is applied to every Typhoon-based system in the
// matrix (DirNNB has no Typhoon system and runs unmutated), so a
// handler bug shows up as Typhoon runs diverging from the hardware
// reference.
func RunDifferential(app string, mut *DiffMutation) error {
	var results []harness.DiffObservation
	for _, sys := range harness.DiffSystemsFor(app) {
		var opt harness.DiffOptions
		if mut != nil && sys != harness.SysDirNNB {
			opt.Mutate, opt.SkipVerify = mut.Mutate, mut.SkipVerify
		}
		obs, err := harness.RunObserved(Pair{App: app, System: sys}.Point(), opt)
		if err != nil {
			return fmt.Errorf("conform: differential %s under %s: %w", app, sys, err)
		}
		results = append(results, obs)
	}
	return harness.CompareObservations(results)
}
