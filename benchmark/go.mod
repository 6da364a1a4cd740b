// The benchmark is a module of its own so `go build ./...` and
// `go test ./...` at the repo root leave it alone; the path sits under the
// parent module's, which is what lets it import pathrank/internal/*.
module pathrank/benchmark

go 1.23.0

require pathrank v0.0.0

replace pathrank => ../
