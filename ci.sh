#!/usr/bin/env bash
# CI gate for the sysml repo: static checks, docs lint, full test suite
# under the race detector, the benchmark's own checker tests (a module of
# its own under benchmark/), the kernel performance gates (BENCH_kernels.json
# must report "pass": true), the distributed-backend gates (BENCH_dist.json
# likewise), the fault-tolerance gates (BENCH_fault.json likewise), the
# multi-tenant serving gates (BENCH_serve.json likewise), the serving
# observability gates (BENCH_serveobs.json likewise), the
# horizontal-fusion gates (BENCH_hfuse.json likewise), the
# compressed-execution gates (BENCH_cla.json likewise), and the
# feedback/re-optimization gates (BENCH_recost.json likewise).
set -euo pipefail
cd "$(dirname "$0")"

# vet's asmdecl pass checks every TEXT frame in internal/vector/kernels_amd64.s
# against its Go declaration (argument names, offsets, sizes).
echo "== go vet =="
go vet ./...

# The Go loops are the only implementation off amd64: they must keep building.
echo "== portable build (GOARCH=arm64) =="
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/vector

echo "== docs lint (docscheck) =="
go run ./cmd/docscheck

echo "== go build =="
go build ./...

# A hang is a failure, not a ten-minute wait: every package has 120 s.
echo "== go test -race =="
go test -race -timeout 120s ./...

# The concurrency-heavy packages must not depend on the core count: a join
# that only works with spare cores, or a batching test that only coalesces
# when the scheduler cooperates, fails here.
for procs in 1 2 4 8; do
  echo "== go test -short, GOMAXPROCS=$procs (par dist runtime serve) =="
  GOMAXPROCS=$procs go test -short -timeout 120s ./internal/par ./internal/dist ./internal/runtime ./internal/serve
done

# Every assembly kernel against its Go twin on generated shapes, offsets and
# bit patterns (NaN, infinities, denormals), beyond the table tests.
echo "== fuzz (FuzzKernels, 20 s) =="
go test -run '^$' -fuzz FuzzKernels -fuzztime 20s ./internal/vector

echo "== benchmark checker tests (go test -short) =="
(cd benchmark && go test -short -timeout 120s ./...)

echo "== kernel gates (fusebench -exp kernels) =="
go run ./cmd/fusebench -exp kernels
if ! grep -q '"pass": true' BENCH_kernels.json; then
  echo "FAIL: BENCH_kernels.json gates did not pass" >&2
  cat BENCH_kernels.json >&2
  exit 1
fi
echo "== distributed gates (fusebench -exp dist) =="
go run ./cmd/fusebench -exp dist
if ! grep -q '"pass": true' BENCH_dist.json; then
  echo "FAIL: BENCH_dist.json gates did not pass" >&2
  cat BENCH_dist.json >&2
  exit 1
fi
echo "== fault-tolerance gates (fusebench -exp fault) =="
go run ./cmd/fusebench -exp fault
if ! grep -q '"pass": true' BENCH_fault.json; then
  echo "FAIL: BENCH_fault.json gates did not pass" >&2
  cat BENCH_fault.json >&2
  exit 1
fi
echo "== serving gates (fusebench -exp serve) =="
go run ./cmd/fusebench -exp serve
if ! grep -q '"pass": true' BENCH_serve.json; then
  echo "FAIL: BENCH_serve.json gates did not pass" >&2
  cat BENCH_serve.json >&2
  exit 1
fi
echo "== serving observability gates (fusebench -exp serveobs) =="
go run ./cmd/fusebench -exp serveobs
if ! grep -q '"pass": true' BENCH_serveobs.json; then
  echo "FAIL: BENCH_serveobs.json gates did not pass" >&2
  cat BENCH_serveobs.json >&2
  exit 1
fi
echo "== horizontal fusion gates (fusebench -exp hfuse) =="
go run ./cmd/fusebench -exp hfuse
if ! grep -q '"pass": true' BENCH_hfuse.json; then
  echo "FAIL: BENCH_hfuse.json gates did not pass" >&2
  cat BENCH_hfuse.json >&2
  exit 1
fi
echo "== compressed execution gates (fusebench -exp cla) =="
go run ./cmd/fusebench -exp cla
if ! grep -q '"pass": true' BENCH_cla.json; then
  echo "FAIL: BENCH_cla.json gates did not pass" >&2
  cat BENCH_cla.json >&2
  exit 1
fi
echo "== feedback/re-optimization gates (fusebench -exp recost) =="
go run ./cmd/fusebench -exp recost
if ! grep -q '"pass": true' BENCH_recost.json; then
  echo "FAIL: BENCH_recost.json gates did not pass" >&2
  cat BENCH_recost.json >&2
  exit 1
fi
echo "OK: all CI gates passed"
