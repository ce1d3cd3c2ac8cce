# Developer and CI entry points. `make ci` is what the GitHub Actions
# workflow runs: vet, build, the full test suite under the race detector
# (the parallel harness runner and the engine's coroutine hand-offs
# depend on -race staying green), a one-iteration benchmark smoke pass,
# a smoke pass over the five binaries' command lines, the digest gate
# (the ideal and the contended machine), and the fuzz targets' committed
# seed corpora. The conformance corpus is a golden file under `go test`
# (internal/conform), so the race leg runs it. Sweeps run in one process
# on -j workers and no binary reads or writes a result cache: no binary
# links internal/fleet, which stays only for the benchmark's fleet_warm
# workload, with DecodePoint and its fuzz seeds, and internal/resultcache
# stays only for cache_warm and fleet_warm; their own tests run in the
# race leg.
# `make repin` re-pins every behaviour fence after an intended change;
# it stays outside `make ci` because it writes tracked files.
# Performance is measured with `go run ./benchmark` (BENCHMARK.json), not
# from here; `make profile-hit`, `profile-miss`, `profile-contended` and
# `profile-large` put one of its simulating workloads under the CPU and
# allocation profilers. Read the allocation profile by object count with
# `go tool pprof -sample_index=alloc_objects harness.test mem-miss.prof`,
# and by size class (bytes per class, where an object one byte past a
# class boundary costs the whole next class) with
# `go tool pprof -sample_index=alloc_space -tags harness.test mem-miss.prof`.

GO ?= go

.PHONY: ci vet build test race microbench bench-smoke cli-smoke digest-check repin profile profile-hit profile-miss profile-contended profile-large fuzz-seeds fuzz-burst loc

ci: vet build race bench-smoke cli-smoke digest-check fuzz-seeds

# vet also fails on any file gofmt would rewrite, naming it, and on any
# reference hit-path helper the compiler stops inlining (inline_check.sh).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	bash scripts/inline_check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# microbench runs every Go benchmark: Tables 1-3, simulator throughput
# and the layer microbenchmarks. The figures and ablations are printed by
# cmd/fig3, cmd/fig4 and cmd/ablations, not benchmarked.
microbench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-smoke compiles and runs every benchmark for exactly one
# iteration: catches bit-rotted benchmark code without paying for timing.
bench-smoke:
	$(GO) test -run=NoTests -bench=. -benchtime=1x ./...

# cli-smoke builds all five binaries once, runs one real simulation
# through the shared flag block (on the system a private switch in
# typhoon-sim used to refuse) and one ablation sweep (ablations -only
# em3d, the only way to regenerate that table), and gives every sweep
# binary one bad shared flag — typhoon-sim also a cache whose set count is not a power
# of two, bench the removed sharding flag, fig3 and bench the removed
# -no-dedup, every sweep binary the removed -fleet, -cache-dir and
# -cache-verify, bench the removed -expect-cached: each must exit 2 and
# name the flag (or the rule) on stderr.
cli-smoke:
	bash scripts/cli_smoke.sh

# digest-check runs the bench sweep twice, on the paper's contention-free
# machine and on the 4 B/cycle, 20-cycle-occupancy machine, and compares
# each output digest to the committed one — any drift means simulated
# results changed. testdata/bench.digest is also the sha256 of the
# Figure 3 and 4 golden bodies (TestBenchDigestIsGoldensHash), which
# TestGoldenFigure3/4 pin in the race leg; the ideal leg checks that the
# binary's own rendering still produces it.
digest-check:
	$(GO) run ./cmd/bench -check testdata/bench.digest
	$(GO) run ./cmd/bench -link-bw 4 -occupancy 20 -check testdata/bench_contended.digest

# repin rewrites every behaviour fence from this tree, in order: the
# Figure 3/4 goldens (logging each bar that moved by more than 0.01, the
# list CHANGES.md reports), testdata/bench.digest and EXPERIMENTS.md's
# reduced Figure 3 table (written by the tests that check them, from the
# new goldens), the conformance corpus, the contended digest, and
# benchmark/expected.json (-update-expected refuses unless the sweep
# matches bench.digest). On a tree whose behaviour did not change it
# rewrites every file byte for byte. The contended digest goes to a
# temporary file first, so a failed or interrupted sweep never leaves it
# empty or truncated.
repin:
	$(GO) test ./internal/harness -run Golden -update -v
	$(GO) test ./internal/conform -run TestReRecordMatchesCorpus -update
	$(GO) run ./cmd/bench -link-bw 4 -occupancy 20 > testdata/bench_contended.digest.tmp
	mv testdata/bench_contended.digest.tmp testdata/bench_contended.digest
	$(GO) run ./benchmark -update-expected

# profile runs the bench sweep under the CPU and allocation profilers;
# inspect with `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) run ./cmd/bench -check testdata/bench.digest -cpuprofile cpu.prof -memprofile mem.prof
	@echo "profiles written: cpu.prof mem.prof (go tool pprof <file>)"

# profile-hit / profile-miss / profile-contended / profile-large profile
# one workload instead of the whole sweep: the point sets of the repo
# benchmark's hit_path, miss_path, miss_path_contended and fig_large
# (internal/harness BenchmarkPointsHitPath / BenchmarkPointsMissPath /
# BenchmarkPointsMissPathContended / BenchmarkPointsFigLarge), on one
# processor as the benchmark runs them, writing cpu-<set>.prof and
# mem-<set>.prof. Inspect with `go tool pprof harness.test cpu-hit.prof`.
profile-hit:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'PointsHitPath$$' -benchtime 20x -cpuprofile cpu-hit.prof -memprofile mem-hit.prof ./internal/harness
profile-miss:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'PointsMissPath$$' -benchtime 20x -cpuprofile cpu-miss.prof -memprofile mem-miss.prof ./internal/harness
profile-contended:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'PointsMissPathContended$$' -benchtime 20x -cpuprofile cpu-contended.prof -memprofile mem-contended.prof ./internal/harness
profile-large:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'PointsFigLarge$$' -benchtime 10x -cpuprofile cpu-large.prof -memprofile mem-large.prof ./internal/harness

# fuzz-seeds executes the committed seed corpora of the fuzz targets as
# ordinary tests (no fuzzing engine; deterministic).
fuzz-seeds:
	$(GO) test -run='^Fuzz' ./internal/sim/ ./internal/cache/ ./internal/typhoon/ ./internal/stats/ ./internal/resultcache/ ./internal/fleet/ ./internal/harness/ ./internal/wiretext/

# fuzz-burst runs the fuzzing engine for ten seconds on each of the three
# text-format decoders, on the reader under them, on the scheduler's
# queue and on the hinted TLB. It is not part of `make ci`, which stays
# deterministic: run it after touching a decoder, internal/wiretext,
# internal/sim's calendar or the TLB and its hints, and commit any
# finding under the target's testdata/fuzz directory once it is fixed.
fuzz-burst:
	$(GO) test -run='^$$' -fuzz='^FuzzCalendar$$' -fuzztime=10s ./internal/sim/
	$(GO) test -run='^$$' -fuzz='^FuzzTLB$$' -fuzztime=10s ./internal/cache/
	$(GO) test -run='^$$' -fuzz='^FuzzCacheEntry$$' -fuzztime=10s ./internal/resultcache/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePoint$$' -fuzztime=10s ./internal/harness/
	$(GO) test -run='^$$' -fuzz='^FuzzFleetMessage$$' -fuzztime=10s ./internal/fleet/
	$(GO) test -run='^$$' -fuzz='^FuzzReader$$' -fuzztime=10s ./internal/wiretext/

# loc prints non-test Go lines in three groups — the sweep plumbing, the
# protocols it exercises, and the engine under both (scheduler, network,
# agents, machine, tracer, and the memory, page tables and caches every
# reference passes through) — the figures ROADMAP.md quotes. The text
# reader the plumbing's formats share counts as plumbing, so moving lines
# into it cannot read as a reduction.
loc:
	@for d in internal/harness internal/fleet internal/resultcache internal/conform cmd \
			internal/wiretext \
			internal/stache internal/typhoon internal/dirnnb internal/blizzard \
			internal/sim internal/network internal/agent internal/machine internal/trace/trace.go \
			internal/vm internal/mem internal/cache; do \
		printf '%-24s %5d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done | awk '{print; if (NR <= 6) p += $$2; else if (NR <= 10) q += $$2; else e += $$2} \
		END {printf "plumbing %d : protocols %d : engine %d\n", p, q, e}'
