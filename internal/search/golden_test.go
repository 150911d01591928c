package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
)

// TestMCMCWalkGolden pins the absolute outcome of the MCMC walk — not
// just its self-consistency across pool sizes — for both walk
// variants, delta and FullSim, each on tinyMLP over 4 P100s from the
// paper's three initials at a fixed seed. Any change to the RNG draws, the
// delta sequence, the accept/revert logic or the stat accounting moves
// one of these constants; a change that moves them on purpose re-pins
// them deliberately and says why.
func TestMCMCWalkGolden(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	initials := Initials(g, topo, 5, true)

	type want struct {
		bestCost         time.Duration
		iters, accepted  int
		stats            sim.Stats
		trace            int
		strategySHA256_8 string // first 8 bytes, hex, of MarshalStrategy(Best)
	}
	for _, tc := range []struct {
		name    string
		fullSim bool
		want    want
	}{
		{"uniform/delta", false, want{939835, 446, 135, sim.Stats{FullSims: 3, DeltaSims: 757, Pops: 59405, SuffixTasks: 59190}, 19, "736b613030493ecc"}},
		{"uniform/fullsim", true, want{939835, 446, 133, sim.Stats{FullSims: 449, Pops: 37721}, 23, "736b613030493ecc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.MaxIters = 150
			opts.Seed = 5
			opts.FullSim = tc.fullSim
			res := MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), initials, opts)
			blob, err := config.MarshalStrategy(g, res.Best)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			got := want{
				bestCost:         res.BestCost,
				iters:            res.Iters,
				accepted:         res.Accepted,
				stats:            res.SimStats,
				trace:            len(res.Trace),
				strategySHA256_8: hex.EncodeToString(sum[:8]),
			}
			if got != tc.want {
				t.Errorf("walk moved:\n got  %#v\n want %#v\nbest strategy: %s", got, tc.want, blob)
			}
		})
	}
}
