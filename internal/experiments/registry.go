package experiments

import (
	"io"
)

// Experiment regenerates one paper artifact, writing its report to w.
type Experiment struct {
	ID          string
	Description string
	Run         func(env *Env, w io.Writer) error
}

// All returns every experiment in paper order. numStudyUsers scales the
// user-study simulation (26 reproduces the paper).
func All(numStudyUsers int) []Experiment {
	return []Experiment{
		{ID: "fig2", Description: "viewport prediction accuracy vs window",
			Run: func(env *Env, w io.Writer) error { _, err := Fig2PredictionAccuracy(env, w); return err }},
		{ID: "fig5", Description: "user movement during stalls",
			Run: func(env *Env, w io.Writer) error { _, err := Fig5YawDuringStalls(env, w); return err }},
		{ID: "table1", Description: "scheme design matrix",
			Run: func(env *Env, w io.Writer) error { Table1SchemeMatrix(w); return nil }},
		{ID: "fig9", Description: "main comparison on Belgian traces (incl. 1 s look-ahead variants)",
			Run: func(env *Env, w io.Writer) error { _, err := Fig9MainComparison(env, w); return err }},
		{ID: "fig10", Description: "PSPNR-optimizing variants",
			Run: func(env *Env, w io.Writer) error { _, err := Fig10PSPNR(env, w); return err }},
		{ID: "fig11", Description: "Irish 5G sensitivity",
			Run: func(env *Env, w io.Writer) error { _, err := Fig11Irish(env, w); return err }},
		{ID: "table2", Description: "ablation variant matrix",
			Run: func(env *Env, w io.Writer) error { Table2VariantMatrix(w); return nil }},
		{ID: "fig12", Description: "ablation study + Fig 13 skip analysis",
			Run: func(env *Env, w io.Writer) error {
				abl, err := Fig12Ablation(env, w)
				if err != nil {
					return err
				}
				Fig13SkipAnalysis(abl, w)
				return nil
			}},
		{ID: "fig14-17", Description: "user study simulation (Figs 14, 15, 16, 17)",
			Run: func(env *Env, w io.Writer) error {
				out, err := RunUserStudy(env, numStudyUsers, w)
				if err != nil {
					return err
				}
				Fig16Displacement(out, w)
				return nil
			}},
		{ID: "fig18", Description: "per-tile quality sensitivity",
			Run: func(env *Env, w io.Writer) error { Fig18QualitySensitivity(env, w); return nil }},
		{ID: "fig19", Description: "masking strategies (full-360 vs tiled)",
			Run: func(env *Env, w io.Writer) error { _, err := Fig19MaskingStrategies(env, w); return err }},
		{ID: "fig20", Description: "fixed vs variable tiling overhead",
			Run: func(env *Env, w io.Writer) error { Fig20TilingOverhead(env, w); return nil }},
		{ID: "fig21-23", Description: "motion prediction error sensitivity",
			Run: func(env *Env, w io.Writer) error { _, err := Fig21to23ErrorSensitivity(env, w); return err }},
		{ID: "table3", Description: "video bitrate calibration (Table 3 / Fig 24)",
			Run: func(env *Env, w io.Writer) error { Table3VideoBitrates(env, w); return nil }},
		{ID: "tiling", Description: "why 12x12 tiling (Appendix)",
			Run: func(env *Env, w io.Writer) error { TilingSweep(env, w); return nil }},

		// Extensions beyond the paper's figures.
		{ID: "ext-predictor", Description: "extension: viewport-predictor method ablation",
			Run: func(env *Env, w io.Writer) error { ExtPredictorMethods(env, w); return nil }},
		{ID: "ext-interval", Description: "extension: decision-interval sweep",
			Run: func(env *Env, w io.Writer) error { _, err := ExtDecisionInterval(env, w); return err }},
		{ID: "ext-decode", Description: "extension: client decode-stage sensitivity",
			Run: func(env *Env, w io.Writer) error { _, err := ExtDecodeStage(env, w); return err }},
		{ID: "ext-roi", Description: "extension: RoI geometry ablation",
			Run: func(env *Env, w io.Writer) error { _, err := ExtRoIGeometry(env, w); return err }},
		{ID: "ext-masking", Description: "extension: §3.2 masking optimizations (scheduled + interpolation)",
			Run: func(env *Env, w io.Writer) error { _, err := ExtMaskingOptimizations(env, w); return err }},
		{ID: "ext-fault", Description: "extension: fault tolerance (reconnect + resume vs no-reconnect)",
			Run: func(env *Env, w io.Writer) error { _, err := ExtFaultTolerance(env, w); return err }},
		// The registry runs these four under seed 1; their tests run others.
		{ID: "chaos", Description: "extension: corruption + server-restart chaos with admission-control probe",
			Run: func(_ *Env, w io.Writer) error { _, err := extChaos(w, 1); return err }},
		{ID: "fleet-chaos", Description: "extension: balancer-fronted fleet with kill/cold-restart/drain mid-stream",
			Run: func(_ *Env, w io.Writer) error { _, err := extFleetChaos(w, 1); return err }},
		{ID: "chaos-soak", Description: "extension: all-tier seeded failpoint soak (fleet + ingest + feedback under injected faults)",
			Run: func(_ *Env, w io.Writer) error { _, err := extChaosSoak(w, 1); return err }},
		{ID: "qoe-feedback", Description: "extension: trace ingest -> cohort rollup -> QoE shed-budget feedback loop",
			Run: func(_ *Env, w io.Writer) error { _, err := extQoEFeedback(w, 1); return err }},
		{ID: "population", Description: "extension: population-scale sweep with streamed sketch aggregation (internal/popsim)",
			Run: func(env *Env, w io.Writer) error { _, err := ExtPopulation(env, w); return err }},
	}
}

// Find returns the experiment with the given ID, or false.
func Find(id string, numStudyUsers int) (Experiment, bool) {
	for _, e := range All(numStudyUsers) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
