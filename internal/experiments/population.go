package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"dragonfly/internal/popsim"
)

// PopulationOutcome is the accounting of one population sweep run.
type PopulationOutcome struct {
	Sessions     int64              // sessions folded (members x schemes)
	Cohorts      int                // distinct (motion x network) cohorts sampled
	ShardsEqual  bool               // 2-shard merge reproduced the whole sweep
	BestSchemeDB map[string]float64 // per-scheme median viewport quality across cohorts
}

// ExtPopulation demonstrates the population-scale sweep engine
// (internal/popsim) at experiment scale: a mixed-cohort population plays
// under Dragonfly and Pano with streamed sketch aggregation, and the run
// re-executes as two merged shards to exhibit the determinism contract
// (same seed ⇒ identical merged rollup, any shard split).
func ExtPopulation(env *Env, w io.Writer) (PopulationOutcome, error) {
	const (
		members  = 24
		duration = 10 * time.Second
		seed     = 11
	)
	model := popsim.DefaultModel(seed)
	model.Duration = duration
	schemes := []string{"dragonfly", "pano"}
	sweep := func(shardIdx, shardCount int) (*popsim.Rollup, popsim.Stats, error) {
		return popsim.Run(popsim.Sweep{
			Videos:     env.Videos[:1],
			Schemes:    schemes,
			Sessions:   members,
			Model:      model,
			ShardIndex: shardIdx,
			ShardCount: shardCount,
			Obs:        env.Obs,
		})
	}

	fprintf(w, "Extension: population-scale sweep (%d members x %d schemes, seed %d)\n",
		members, len(schemes), seed)
	whole, st, err := sweep(0, 1)
	if err != nil {
		return PopulationOutcome{}, err
	}
	env.LastSweep = st

	merged := popsim.NewRollup(popsim.Geometry{})
	for shard := 0; shard < 2; shard++ {
		part, _, err := sweep(shard, 2)
		if err != nil {
			return PopulationOutcome{}, err
		}
		if err := merged.Merge(part); err != nil {
			return PopulationOutcome{}, err
		}
	}
	wholeJSON, err := whole.SummaryJSON()
	if err != nil {
		return PopulationOutcome{}, err
	}
	mergedJSON, err := merged.SummaryJSON()
	if err != nil {
		return PopulationOutcome{}, err
	}

	out := PopulationOutcome{
		Sessions:     whole.Sessions(),
		ShardsEqual:  bytes.Equal(wholeJSON, mergedJSON),
		BestSchemeDB: map[string]float64{},
	}
	sum := whole.Summary()
	cohortSet := map[string]bool{}
	for _, scheme := range sortedNames(sum.Schemes) {
		cohorts := sum.Schemes[scheme]
		fprintf(w, "\n  %-12s %-16s %9s %12s %12s %12s\n",
			"scheme", "cohort", "sessions", "quality p50", "stall p50", "blank p90")
		// Weighted-by-samples median across cohorts would need a merged
		// sketch; report the per-cohort medians and a session-weighted mean
		// of them as the scheme's summary number.
		var wsum, wtot float64
		for _, cohort := range sortedNames(cohorts) {
			cs := cohorts[cohort]
			cohortSet[cohort] = true
			fprintf(w, "  %-12s %-16s %9d %9.2f dB %9.0f ms %12.4f\n",
				scheme, cohort, cs.Sessions, cs.QualityDB.P50, cs.StallMS.P50, cs.BlankRatio.P90)
			wsum += cs.QualityDB.P50 * float64(cs.Sessions)
			wtot += float64(cs.Sessions)
		}
		if wtot > 0 {
			out.BestSchemeDB[scheme] = wsum / wtot
		}
	}
	out.Cohorts = len(cohortSet)

	fprintf(w, "\n  %d sessions folded across %d cohorts (sketch envelope %.2f dB)\n",
		out.Sessions, out.Cohorts, sum.QualityEnvDB)
	if !out.ShardsEqual {
		fprintf(w, "  WARNING: 2-shard merge diverged from the whole sweep\n")
		return out, fmt.Errorf("population: shard merge diverged from single-process sweep")
	}
	// The line predates Rollup.Merge as the one merge; its bytes are pinned
	// (pinnedOutput), so it keeps the word "snapshot".
	fprintf(w, "  2-shard snapshot merge reproduces the whole sweep byte-for-byte\n")
	return out, nil
}
