// The benchmark is a module of its own so that tier-1 `go build ./...` and
// `go test ./...` at the repository root never compile or run it. The module
// path sits under repro/ so the harness may import repro/internal/...
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
