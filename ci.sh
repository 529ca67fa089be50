#!/usr/bin/env bash
# CI for the sysml repo: static checks, docs lint, full test suite under the
# race detector, the benchmark's own checker tests (a module of its own under
# benchmark/), and the performance gates (internal/bench.Gates).
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

# Replaced designs stay gone. One row per replacement: the section, the
# identifiers that must not come back in any Go file, the one path exempt
# from the check (- for none), and what came back if they do.
#  - One body per fused operator: the per-cell closure tree, the planner gate
#    that worked around it and the dispatch mirrors (internal/bench keeps a
#    closure chain as the comparator of Fig. 10).
#  - One program, one executor, one tile pass for every fused body: the cell
#    executor, its register store and stepping loops and the Row skeleton's
#    own loops.
#  - One panel scheduler: with or without a fault plan, every map stage
#    claims panels from one task list; the no-plan fast path and the
#    per-executor queues it ran beside.
#  - One sibling-merge pass and one cell-body builder: the multi-aggregate
#    pass beside combineSiblings, the Outer body builder beside cellBody, and
#    the compression floor that became a constant.
#  - One compressor: columns are coded through per-column tables and groups
#    store flat dictionaries; the distinct-count map, the second flat copy of
#    a dictionary and the string-keyed tuple map (the test's
#    compressReference keeps the old compressor to compare against).
#  - One metrics surface: each component writes its own instruments into a
#    snapshot, and one renderer (Session.RunReport) prints the run sections
#    of EXPLAIN and dmlrun from two snapshots; the before/after copies, the
#    four dist interfaces and dmlrun's own printers.
#  - A matrix owns its compression state: the process-wide attachment
#    registry, its LRU and release hook, and the -compress on mode.
#  - Re-optimization stays in the interpreter: the plan cache is one store
#    nothing invalidates (its shards, the hash collector that fed
#    invalidation, the shard-count constructor, and the CPlan field its hash
#    omitted), and the executor hands out one observation callback instead
#    of the calibration sink and the feedback records.
#  - One fit of the machine: Fit turns a fit window's audit ledger into a
#    profile once per host; the online calibrator, its generations, the
#    plan re-optimization they drove and the engine option that shared it.
#  - One compression rule: a value that enters the session is sampled at its
#    first read, one the script produced never is; the plan-aware benefit
#    inequality for produced values, its read histories, the consumer
#    question it asked the runtime, its cost constant and timed
#    compressions, its re-plan and its skip counter.
#  - One parallel fold: a reduction keeps one partial per fixed chunk and
#    merges them in chunk order; the per-worker region and its capped twin,
#    whose partials depended on which worker claimed which chunk.
#  - One priced compressed transfer: the cluster charges WireSizeBytes and
#    serializes nothing; the encoder, the decoder with its reader and the
#    decoder's fuzz target.
#  - The model picks the template: one recursion prices each node's
#    candidate templates and opens the cheapest; the type bonus and the
#    row-aggregate rule that picked by score, and the second costing walk.
#  - One fold order for every worker cap: a region's chunks are fixed by
#    the item count and the grain alone; the chunks-per-participant factor
#    that sized them from the worker cap.
while IFS=';' read -r section pattern exempt what; do
  echo "== $section =="
  spec=('*.go')
  [ "$exempt" = - ] || spec+=(":!$exempt")
  if git grep -nE "$pattern" -- "${spec[@]}"; then
    echo "FAIL: $what is referenced again" >&2
    exit 1
  fi
done <<'ROWS'
one body per fused operator (no closure tier);CellFunc|CellFn|MAggFns|compileCell|CompileInterpreted|cellDispatchFlops|TierCell|CompressedDispatched|iterateOuterTransposed;internal/bench;the closure tier
one executor of fused bodies;CellVecProgram|CellVecBuf|ExecNnz|BindDensified|rowPartials|cellPass|forEachTile|cellTileCells;-;a second executor or skeleton loop
one panel scheduler;runPanelsFaulty|evacuate;-;a second panel scheduler
one sibling pass, one cell-body builder;combineMultiAggregates|buildMAggGroup|maggCand|buildOuterNode|CompressMinBytes;-;a second sibling pass, body builder or the compression-floor knob
one compressor, flat dictionaries;countDistinct|flatDict|keyBuf;internal/compress/compress_test.go;the map-based compressor or the flat-dictionary copy
one metrics surface;distExplainDeltas|distDetail|distFaults|distCompress|printPool|printCompress|printDist;-;a second metrics reader or run-section printer
one compression state per matrix;attachMu|attachCap|attachTick|releaseHooks|OnRelease|CompressOn;-;the attachment registry or the forced compression mode
one plan-cache store, one observation callback;cacheShard|shardFor|PlanHashes|NewSharedPlanCache|CalibSink|InputFeedback|OuterRank;-;plan-cache invalidation, the shard layer or the executor's feedback records
one offline fit into a profile;Calibrator|syncCalibration|calibGen|ObserveCompress|WithCalibration|SaveProfile|reopt\.calib;-;the online calibrator or its generations
one compression rule;readPlan|readHistory|compressProduced|planReads|CompressedConsumer|CompressBW|calibrateCompressions|reopt\.compress|compress\.plan\.skipped;-;the compression policy for script-produced values
one parallel fold;ForIndexed(Limit)?\(;-;a per-worker parallel region
one priced compressed transfer;^func (Encode|Decode)\(|wireReader|wireMagic|FuzzWireDecode;-;a compressed wire codec
the model picks the template;typePreference|overRowAggregate|addOpCost|costNode;-;a template-choice rule beside the model
one fold order for every worker cap;chunkFactor;-;the cap-sized chunk plan
ROWS
# Only cplan.Program.Exec executes RowInstrs (lower.go emits them, source.go
# renders them).
executors=$(git grep -l 'case RBinVV' -- internal/cplan internal/runtime ':!*_test.go' ':!internal/cplan/lower.go' ':!internal/cplan/source.go' | wc -l)
if [ "$executors" -gt 1 ]; then
  echo "FAIL: $executors files of internal/cplan + internal/runtime switch on RowInstr.Op to execute it" >&2
  exit 1
fi
# Net LOC is a tracked number (ROADMAP): non-test Go lines, benchmark/ aside.
loc() { git ls-files -- "$@" | grep '\.go$' | grep -v '_test\.go$' | xargs cat | wc -l; }
fused=$(loc internal/cplan internal/runtime)
echo "non-test Go lines: internal/cplan + internal/runtime $fused, internal/codegen $(loc internal/codegen), internal/dist $(loc internal/dist), internal/compress $(loc internal/compress), root module $(loc . ':!benchmark')"
if [ "$fused" -gt 3200 ]; then
  echo "FAIL: internal/cplan + internal/runtime grew past 3200 non-test lines" >&2
  exit 1
fi

echo "== docs lint (docscheck) =="
go run ./cmd/docscheck

echo "== go build =="
go build ./...

# A hang is a failure, not a ten-minute wait: every package has 120 s.
echo "== go test -race =="
go test -race -timeout 120s ./...

# The concurrency-heavy packages must not depend on the core count: a join
# that only works with spare cores, or a batching test that only coalesces
# when the scheduler cooperates, fails here. The kernels' reductions do not
# depend on scheduling either, and their property tests hold at every count.
for procs in 1 2 4 8; do
  echo "== go test -short, GOMAXPROCS=$procs (par dist runtime serve compress matrix) =="
  GOMAXPROCS=$procs go test -short -timeout 120s ./internal/par ./internal/dist ./internal/runtime ./internal/serve ./internal/compress ./internal/matrix
done

# Every assembly kernel against its Go twin on generated shapes, offsets and
# bit patterns (NaN, infinities, denormals), beyond the table tests.
echo "== fuzz (FuzzKernels, 20 s) =="
go test -run '^$' -fuzz FuzzKernels -fuzztime 20s ./internal/vector

# The parser on arbitrary text: never a panic, every error a *ParseError.
echo "== fuzz (FuzzParse, 20 s) =="
go test -run '^$' -fuzz FuzzParse -fuzztime 20s ./internal/dml

# Compress on salted small matrices (NaN, ±Inf, ±0): bit-exact round trips
# through Decompress, and the same groups on one and two workers.
echo "== fuzz (FuzzCompress, 20 s) =="
go test -run '^$' -fuzz FuzzCompress -fuzztime 20s ./internal/compress

echo "== benchmark checker tests (go test -short) =="
(cd benchmark && go test -short -timeout 120s ./...)

# Every gate runs, every failing check is printed, BENCH.json is the report
# and the exit status the verdict.
echo "== performance gates (fusebench -exp gates) =="
go run ./cmd/fusebench -exp gates
echo "OK: all CI gates passed"
