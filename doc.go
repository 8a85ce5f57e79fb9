// Package dragonfly is a from-scratch Go reproduction of "Dragonfly:
// Higher Perceptual Quality For Continuous 360° Video Playback"
// (ACM SIGCOMM 2023).
//
// The library lives under internal/: the utility-driven tile scheduler and
// masking-stream design (internal/core), the baseline systems it is
// evaluated against (internal/baseline), the playback engine and metrics
// (internal/player), the substrates (internal/geom, internal/video,
// internal/trace, internal/predict, internal/quality, internal/abr), the
// networked path (internal/proto, internal/netem, internal/server,
// internal/client), and the evaluation harness (internal/sim,
// internal/study, internal/experiments, internal/stats).
//
// Executables are under cmd/, and Example (example_test.go) is the
// quickstart session; see README.md for a tour and EXPERIMENTS.md for the
// paper-versus-measured record of every reproduced table and figure. The
// benchmarks in bench_test.go regenerate each evaluation artifact at a
// reduced scale.
package dragonfly
