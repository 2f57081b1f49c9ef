// The benchmark is a module of its own so that it builds from its own
// directory and never rides along in the parent's `go build ./...`.
// Its path sits under the parent's ("gph/...") so that it may import
// gph/internal/... for the per-layer probes.
module gph/benchmark

go 1.24

require gph v0.0.0

replace gph => ../
