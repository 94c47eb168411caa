GO ?= go

.PHONY: all build vet test race bench bench-json fuzz soak figures clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark run (BENCHTIME=1x for a smoke pass).
# BENCH_OUT names the output document; committed snapshots are
# BENCH_<pr>.json and are never removed by `make clean`.
BENCHTIME ?= 1s
BENCH_OUT ?= BENCH_10.json
bench-json:
	$(GO) test -run XXX -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# Every fuzz target, FUZZTIME each (CI's fuzz-smoke job runs this).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^FuzzRoute$$' -fuzz='^FuzzRoute$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzRouteAgainstOracle$$' -fuzz='^FuzzRouteAgainstOracle$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzFallbackAgainstShortestPath$$' -fuzz='^FuzzFallbackAgainstShortestPath$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzGCDistance$$' -fuzz='^FuzzGCDistance$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzSliceRouteMatchesReference$$' -fuzz='^FuzzSliceRouteMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzFREHMatchesReference$$' -fuzz='^FuzzFREHMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzMultipathAgainstOracle$$' -fuzz='^FuzzMultipathAgainstOracle$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzCollectiveAgainstOracle$$' -fuzz='^FuzzCollectiveAgainstOracle$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run '^FuzzPC$$' -fuzz='^FuzzPC$$' -fuzztime=$(FUZZTIME) ./internal/gtree/
	$(GO) test -run '^FuzzCT$$' -fuzz='^FuzzCT$$' -fuzztime=$(FUZZTIME) ./internal/gtree/
	$(GO) test -run '^FuzzFrameRoundTrip$$' -fuzz='^FuzzFrameRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run '^FuzzDecodeNoPanic$$' -fuzz='^FuzzDecodeNoPanic$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run '^FuzzJournalReplayNoPanic$$' -fuzz='^FuzzJournalReplayNoPanic$$' -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run '^FuzzTopologyOwner$$' -fuzz='^FuzzTopologyOwner$$' -fuzztime=$(FUZZTIME) ./internal/cluster/

# Crash-recovery soak: kill-and-restart durability tests plus every
# journal test, under the race detector (the CI crash-soak job).
soak:
	$(GO) test -race -count=2 -run 'Crash|Journal' ./...

# Regenerate every paper figure as tables, CSV, SVG and a markdown report.
figures:
	$(GO) run ./cmd/gcbench -svg charts -csv data -report report.md

# clean removes generated artifacts only. Committed goldens are never
# touched — in particular the *.journal replay goldens under
# internal/journal/testdata/, which pin the on-disk format across
# releases.
clean:
	rm -rf charts data report.md test_output.txt bench_output.txt HIST_1.json
