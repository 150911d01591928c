//go:build scale

package sim

import "testing"

// TestScalePropertySynth50k is the heavyweight member of the
// TestScaleProperty suite: the same mutate/revert delta/full
// differential as TestScalePropertySynth2k, but on the full-size
// 50k-task synthetic class — the scale where the sparse timing state
// (paged copy-on-write pages, truncation rebuild) actually earns its
// keep. Each step prices a full 50k-task reference simulation, so the
// test runs only under the scale build tag (CI gives it a dedicated
// step: `go test -race -tags scale -run TestScaleProperty
// ./internal/sim/`).
func TestScalePropertySynth50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-task property walk is not a -short test")
	}
	scalePropertyRun(t, "synth-50k", 7, 6)
}

// TestScalePropertyLocalitySynth50k is the locality-weighted walk at
// the 50k-task scale: position-weighted op draws (suffixHints)
// concentrate the mutations on the late tail of the timeline, where the
// paged copy-on-write truncation does the least work, and the
// delta/full differential must stay bit-for-bit there too. Runs in the
// same dedicated CI step as the uniform 50k walk (`-run
// TestScaleProperty -tags scale`).
func TestScalePropertyLocalitySynth50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-task property walk is not a -short test")
	}
	scaleLocalityPropertyRun(t, "synth-50k", 7, 6)
}
