# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-race vet loc bench pairs bench-all bench-smoke bench-cluster serve-smoke cluster-smoke validate-smoke whatif-smoke sim-scale-smoke search-smoke fuzz-smoke fuzz cover figures figures-full run examples clean

all: build test

build:
	go build ./...

test: vet bench-smoke serve-smoke cluster-smoke validate-smoke whatif-smoke sim-scale-smoke search-smoke fuzz-smoke cover

# Full test suite with the per-package coverage gate (see README "Coverage
# gate"): every internal/ package must hold >= 60% statement coverage.
# covercheck also fails on any FAIL line, so this subsumes `go test ./...`.
cover:
	go test -cover ./... | go run ./cmd/covercheck -floor 60 -enforce internal/

# The harness, the experiment drivers, the serving core, the simulators and
# the parallel graph/flow kernels are the concurrent paths: run them under
# the race detector. Fuzz seed corpora run as ordinary tests here, so the
# fuzz targets are also race-checked.
test-race:
	go test -race ./internal/harness/... ./internal/experiments/... \
		./internal/graph/... ./internal/fluid/... ./internal/tm/... \
		./internal/serve/... ./internal/cluster/... ./internal/flowsim/... \
		./internal/netsim/... ./internal/sim/... ./internal/minheap/... \
		./internal/topology/... ./internal/validate/... ./internal/whatif/... \
		./internal/search/... ./internal/eval/...

# Cross-model validation (DESIGN.md §10): exact LP vs Garg–Könemann vs
# flowsim vs netsim on shared scenarios, plus conservation and replay
# determinism. The smoke grid is wired into `make test`; the full grid runs
# through the harness: `go run ./cmd/beyondft run -only 'validate-*' -full`.
validate-smoke:
	go run ./cmd/beyondft validate -smoke

# What-if sweep smoke (DESIGN.md §12): a full single-link sweep of a tiny
# fabric via `beyondft whatif`, run at 1 and 8 workers and then resumed from the
# scenario cache — stdout (histogram + worst-k frontier) must be
# byte-identical every time. A fourth run widens the frontier (-topk 12)
# over the same cache, so it promotes scenarios whose coarse rung is a cache
# hit; it must match a cold run at that -topk: the cache is an accelerator,
# never an input. Wired into `make test`.
WHATIF_DIR := .whatif-smoke
WHATIF_ARGS := -topo jellyfish -n 16 -degree 4 -servers 2 -family single-link
whatif-smoke:
	@rm -rf $(WHATIF_DIR) && mkdir -p $(WHATIF_DIR)
	@go build -o $(WHATIF_DIR)/beyondft ./cmd/beyondft
	@$(WHATIF_DIR)/beyondft whatif $(WHATIF_ARGS) -workers 1 > $(WHATIF_DIR)/w1.out 2>/dev/null
	@$(WHATIF_DIR)/beyondft whatif $(WHATIF_ARGS) -workers 8 -cache $(WHATIF_DIR)/cache > $(WHATIF_DIR)/w8.out 2>/dev/null
	@$(WHATIF_DIR)/beyondft whatif $(WHATIF_ARGS) -workers 4 -cache $(WHATIF_DIR)/cache > $(WHATIF_DIR)/resumed.out 2>/dev/null
	@$(WHATIF_DIR)/beyondft whatif $(WHATIF_ARGS) -workers 4 -topk 12 -cache $(WHATIF_DIR)/cache > $(WHATIF_DIR)/wide.out 2>/dev/null
	@$(WHATIF_DIR)/beyondft whatif $(WHATIF_ARGS) -workers 2 -topk 12 > $(WHATIF_DIR)/wide-cold.out 2>/dev/null
	@cmp $(WHATIF_DIR)/w1.out $(WHATIF_DIR)/w8.out || { echo "whatif-smoke: worker count changed the sweep"; exit 1; }
	@cmp $(WHATIF_DIR)/w1.out $(WHATIF_DIR)/resumed.out || { echo "whatif-smoke: cache resume changed the sweep"; exit 1; }
	@cmp $(WHATIF_DIR)/wide-cold.out $(WHATIF_DIR)/wide.out || { echo "whatif-smoke: a wider frontier over a populated cache differs from a cold sweep"; exit 1; }
	@grep -q '^worst' $(WHATIF_DIR)/w1.out || { echo "whatif-smoke: no frontier in output"; cat $(WHATIF_DIR)/w1.out; exit 1; }
	@echo "whatif-smoke: ok (single-link sweep deterministic across workers, cache resume and cache history)"
	@rm -rf $(WHATIF_DIR)

# Scale-tier smoke (DESIGN.md §13): the same flowsim workload at 1, 2 and 8
# event-loop shards, and once more split across a checkpoint/resume (resuming
# into yet another shard count) — stdout (counters, slab high water, full
# sketch JSON) must be byte-identical every time. Wired into `make test`.
SIMSCALE_DIR := .simscale-smoke
SIMSCALE_ARGS := -k 4 -flows 2000
sim-scale-smoke:
	@rm -rf $(SIMSCALE_DIR) && mkdir -p $(SIMSCALE_DIR)
	@go build -o $(SIMSCALE_DIR)/beyondft ./cmd/beyondft
	@$(SIMSCALE_DIR)/beyondft simscale $(SIMSCALE_ARGS) -shards 1 > $(SIMSCALE_DIR)/s1.out
	@$(SIMSCALE_DIR)/beyondft simscale $(SIMSCALE_ARGS) -shards 2 > $(SIMSCALE_DIR)/s2.out
	@$(SIMSCALE_DIR)/beyondft simscale $(SIMSCALE_ARGS) -shards 8 > $(SIMSCALE_DIR)/s8.out
	@cmp $(SIMSCALE_DIR)/s1.out $(SIMSCALE_DIR)/s2.out || { echo "sim-scale-smoke: 2 shards changed the simulation"; exit 1; }
	@cmp $(SIMSCALE_DIR)/s1.out $(SIMSCALE_DIR)/s8.out || { echo "sim-scale-smoke: 8 shards changed the simulation"; exit 1; }
	@$(SIMSCALE_DIR)/beyondft simscale $(SIMSCALE_ARGS) -shards 2 -halt-after 1000 -checkpoint $(SIMSCALE_DIR)/cp.json > /dev/null
	@$(SIMSCALE_DIR)/beyondft simscale $(SIMSCALE_ARGS) -shards 4 -resume $(SIMSCALE_DIR)/cp.json > $(SIMSCALE_DIR)/resumed.out
	@cmp $(SIMSCALE_DIR)/s1.out $(SIMSCALE_DIR)/resumed.out || { echo "sim-scale-smoke: checkpoint resume changed the simulation"; exit 1; }
	@echo "sim-scale-smoke: ok (byte-identical across 1/2/8 shards and a 2-shard checkpoint resumed at 4 shards)"
	@rm -rf $(SIMSCALE_DIR)

# Design-search smoke (DESIGN.md §15): a tiny fixed-seed annealing search
# via `beyondft search`, run at 1, 2 (the smallest count that flies a second step
# beside the first) and 8 workers and then resumed from the candidate cache,
# and a hill-climb (the reject-heavy case) at 1 and 2 — stdout (trace +
# summary) must be byte-identical every time and the best-found design must
# be >= the seed baseline. The written design file is
# then evaluated by name through `beyondft throughput`, closing the loop from
# search output to first-class topology. Wired into `make test`.
SEARCH_DIR := .search-smoke
SEARCH_ARGS := -topo jellyfish -n 12 -degree 3 -servers 2 -budget 14 -batch 5 -proxy-top 2 -coarse 0.3 -fine 0.15 -seed 3
search-smoke:
	@rm -rf $(SEARCH_DIR) && mkdir -p $(SEARCH_DIR)
	@go build -o $(SEARCH_DIR)/beyondft ./cmd/beyondft
	@$(SEARCH_DIR)/beyondft search $(SEARCH_ARGS) -workers 1 > $(SEARCH_DIR)/s1.out 2>/dev/null
	@$(SEARCH_DIR)/beyondft search $(SEARCH_ARGS) -workers 2 > $(SEARCH_DIR)/s2.out 2>/dev/null
	@$(SEARCH_DIR)/beyondft search $(SEARCH_ARGS) -workers 8 -cache $(SEARCH_DIR)/cache -out $(SEARCH_DIR)/designs > $(SEARCH_DIR)/s8.out 2>/dev/null
	@$(SEARCH_DIR)/beyondft search $(SEARCH_ARGS) -workers 4 -cache $(SEARCH_DIR)/cache > $(SEARCH_DIR)/resumed.out 2>/dev/null
	@$(SEARCH_DIR)/beyondft search $(SEARCH_ARGS) -strategy hillclimb -workers 1 > $(SEARCH_DIR)/h1.out 2>/dev/null
	@$(SEARCH_DIR)/beyondft search $(SEARCH_ARGS) -strategy hillclimb -workers 2 > $(SEARCH_DIR)/h2.out 2>/dev/null
	@cmp $(SEARCH_DIR)/s1.out $(SEARCH_DIR)/s2.out || { echo "search-smoke: a second step in flight (2 workers) changed the search"; exit 1; }
	@cmp $(SEARCH_DIR)/s1.out $(SEARCH_DIR)/s8.out || { echo "search-smoke: worker count changed the search"; exit 1; }
	@cmp $(SEARCH_DIR)/s1.out $(SEARCH_DIR)/resumed.out || { echo "search-smoke: cache resume changed the search"; exit 1; }
	@cmp $(SEARCH_DIR)/h1.out $(SEARCH_DIR)/h2.out || { echo "search-smoke: a second step in flight changed the hill-climb (the reject-heavy case)"; exit 1; }
	@awk '/^summary:/ { split($$2, b, "="); split($$3, v, "="); if (v[2] + 0 < b[2] + 0) { print "search-smoke: best " v[2] " below baseline " b[2]; exit 1 } found = 1 } END { if (!found) { print "search-smoke: no summary line"; exit 1 } }' $(SEARCH_DIR)/s1.out
	@$(SEARCH_DIR)/beyondft throughput -designs $(SEARCH_DIR)/designs -topo design -name search-best -eps 0.15 > $(SEARCH_DIR)/thr.out
	@grep -q '^topology: search-best' $(SEARCH_DIR)/thr.out || { echo "search-smoke: best design not evaluable by name"; cat $(SEARCH_DIR)/thr.out; exit 1; }
	@echo "search-smoke: ok (deterministic across workers and cache resume; best >= baseline; design runs by name)"
	@rm -rf $(SEARCH_DIR)

# The native fuzz targets' seed corpora, run as plain tests so `make test`
# catches postcondition regressions without fuzzing time.
FUZZ_PKGS := ./internal/graph ./internal/minheap ./internal/fluid ./internal/sim ./internal/topology ./internal/search ./internal/harness ./internal/cluster
fuzz-smoke:
	go test -run '^Fuzz' $(FUZZ_PKGS)

# Actual coverage-guided fuzzing, one target per package (go's fuzzer
# accepts a single -fuzz match per invocation).
FUZZTIME := 30s
fuzz:
	go test -run '^$$' -fuzz '^FuzzKShortestPaths$$' -fuzztime $(FUZZTIME) ./internal/graph
	go test -run '^$$' -fuzz '^FuzzDeltaOverlay$$' -fuzztime $(FUZZTIME) ./internal/graph
	go test -run '^$$' -fuzz '^FuzzHeapVsSortOracle$$' -fuzztime $(FUZZTIME) ./internal/minheap
	go test -run '^$$' -fuzz '^FuzzGKDijkstraKernel$$' -fuzztime $(FUZZTIME) ./internal/fluid
	go test -run '^$$' -fuzz '^FuzzGKCertifiedRouting$$' -fuzztime $(FUZZTIME) ./internal/fluid
	go test -run '^$$' -fuzz '^FuzzGKRowRepair$$' -fuzztime $(FUZZTIME) ./internal/fluid
	go test -run '^$$' -fuzz '^FuzzEngineEventOrder$$' -fuzztime $(FUZZTIME) ./internal/sim
	go test -run '^$$' -fuzz '^FuzzEngineVsFrozen$$' -fuzztime $(FUZZTIME) ./internal/sim
	go test -run '^$$' -fuzz '^FuzzTopologyGenerators$$' -fuzztime $(FUZZTIME) ./internal/topology
	go test -run '^$$' -fuzz '^FuzzRewire$$' -fuzztime $(FUZZTIME) ./internal/search
	go test -run '^$$' -fuzz '^FuzzLRUAliases$$' -fuzztime $(FUZZTIME) ./internal/harness
	go test -run '^$$' -fuzz '^FuzzClusterHandlers$$' -fuzztime $(FUZZTIME) ./internal/cluster

# go vet, and gofmt: any file `gofmt -l` lists fails the target.
vet:
	go vet ./...
	@files=$$(gofmt -l .); [ -z "$$files" ] || { echo "gofmt -l lists:"; echo "$$files"; exit 1; }

# Non-test Go lines per internal/ package and for cmd/ — the count ROADMAP
# item 3 ("fewer non-test lines") is tracked by. Comments and blank lines
# count: a reduction has to come from code that is gone.
loc:
	@for d in internal/*/ cmd/; do \
		printf '%6d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d  total  (tests: %d)\n' $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) \
		$$(find internal cmd -name '*_test.go' | xargs cat | wc -l)

# The kernel micro-benchmarks, for profiling and before/after looks on one
# box; numbers are claimed from `make pairs` (README "Benchmark trajectory").
# The scale-tier benchmarks (BenchmarkFlowsimScale10M, BenchmarkNetsimScale1M)
# skip unless BEYONDFT_SCALE=1 and run for minutes, hence -timeout 0. The
# zero-alloc gates are tests (TestFlowsimSteadyStateAllocs and its kind),
# so `make test` holds them. -p 1 runs one package's benchmarks at a time:
# by default `go test` runs GOMAXPROCS packages side by side, and on a small
# box they time each other.
BENCH_PATTERN := BenchmarkAPSP|BenchmarkPathStats|BenchmarkBFS|BenchmarkKShortestPaths|BenchmarkLongestMatching|BenchmarkMaxConcurrentFlow|BenchmarkGKMaxConcurrentFlow|BenchmarkGKRoutingDijkstra|BenchmarkGKRoutingCertified|BenchmarkGKRoutingResolved|BenchmarkGKRowRepair|BenchmarkServeThroughputCached|BenchmarkGKObserverDisabled|BenchmarkWhatifSingleLinkSweep|BenchmarkFlowsimSteadyState|BenchmarkNetsimSteadyState|BenchmarkEngineHold|BenchmarkFlowsimScale10M|BenchmarkNetsimScale1M
BENCH_DIRS := ./internal/graph ./internal/fluid ./internal/tm ./internal/serve ./internal/whatif ./internal/sim ./internal/flowsim ./internal/netsim .
bench:
	go test -p 1 -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -timeout 0 $(BENCH_DIRS)

# Paired end-to-end runs, the procedure behind every claimed number
# (benchmark/README.md "Citing a number"; choosing-metrics §8):
#   make pairs WORKLOAD="whatif_sweep cold_query" PARENT=HEAD~1 [SEEDS="501 502 ... 510"]
# builds ./benchmark once from PARENT's committed files and once from this
# tree (uncommitted edits included), then, seed by seed, runs every listed
# workload on the two binaries alternately — odd rounds parent first, even
# rounds change first — each side with its own -tmp directory, so a claim
# and its controls are read in the same hour on the same box. It prints one
# table per workload: every reading of the five end-to-end metrics and the
# failed count, each side's median [q1, q3] (the exclusive method
# benchmark/aa.go uses) and how many pairs the change won. Last, the CPU
# time the hypervisor stole during the pair loop (the steal column of
# /proc/stat) as a share of wall time × nproc: a noisy record shows it.
# PARENT is unpacked with `git archive`, which leaves nothing in .git.
PAIRS_DIR := .pairs
WORKLOAD :=
PARENT :=
SEEDS := 501 502 503 504 505 506 507 508 509 510
pairs:
	@[ -n "$(WORKLOAD)" ] && [ -n "$(PARENT)" ] || { echo 'usage: make pairs WORKLOAD="<name> ..." PARENT=<rev> [SEEDS="501 ... 510"]'; exit 2; }
	@rm -rf $(PAIRS_DIR) && mkdir -p $(PAIRS_DIR)/parent
	@git archive $(PARENT) | tar -x -C $(PAIRS_DIR)/parent
	@cd $(PAIRS_DIR)/parent && go build -o ../bench.parent ./benchmark
	@go build -o $(PAIRS_DIR)/bench.change ./benchmark
	@{ date +%s.%N; awk '$$1 == "cpu" { print $$9 }' /proc/stat; } > $(PAIRS_DIR)/steal.start
	@round=0; for seed in $(SEEDS); do \
		round=$$((round + 1)); order="parent change"; \
		[ $$((round % 2)) = 1 ] || order="change parent"; \
		for wl in $(WORKLOAD); do \
			for side in $$order; do \
				$(PAIRS_DIR)/bench.$$side -workload $$wl -seed $$seed -tmp $(PAIRS_DIR)/tmp.$$side 2> $(PAIRS_DIR)/stderr.$$side \
					| tail -n 1 > $(PAIRS_DIR)/last.$$side; \
				grep -q '"correct":true' $(PAIRS_DIR)/last.$$side \
					|| { echo "pairs: $$side failed $$wl on seed $$seed"; cat $(PAIRS_DIR)/stderr.$$side $(PAIRS_DIR)/last.$$side; exit 1; } >&2; \
				grep -o '"[a-z_]*":{"value":[^,]*\|"failed":[0-9]*' $(PAIRS_DIR)/last.$$side \
					| sed 's/[":{}]/ /g; s/ value / /' | while read -r metric value; do echo "$$wl $$seed $$side $$metric $$value"; done; \
			done; \
		done; \
	done > $(PAIRS_DIR)/readings
	@awk -v parent='$(PARENT)' ' \
		{ if (!($$1 in wls)) { wls[$$1]; wlv[++nw] = $$1 } \
		  if (!($$2 in seeds)) { seeds[$$2]; seedv[++ns] = $$2 } \
		  if (!(($$1, $$4) in mets)) { mets[$$1, $$4]; metv[$$1, ++nm[$$1]] = $$4 } \
		  val[$$1, $$2, $$3, $$4] = $$5 } \
		function quart(w, side, m,   i, j, n, t, k, d) { \
			n = ns; for (i = 1; i <= n; i++) s[i] = val[w, seedv[i], side, m] + 0; \
			for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t } \
			if (n < 2) return sprintf("%.5g", s[1]); \
			for (k = 1; k <= 3; k++) { j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1; \
				d = k * (n + 1) - j * 4; q[k] = (s[j] * (4 - d) + s[j + 1] * d) / 4 } \
			return sprintf("%.5g [%.5g, %.5g]", q[2], q[1], q[3]) } \
		END { for (x = 1; x <= nw; x++) { w = wlv[x]; if (x > 1) print ""; \
			print w ": " parent " (parent) vs this tree (change)"; \
			for (a = 1; a <= nm[w]; a++) { m = metv[w, a]; up = 0; down = 0; line = ""; \
				for (b = 1; b <= ns; b++) { p = val[w, seedv[b], "parent", m] + 0; c = val[w, seedv[b], "change", m] + 0; \
					if (c > p) up++; else if (c < p) down++; \
					line = line sprintf("%s%.5g→%.5g", b > 1 ? ", " : "", p, c) } \
				printf "%s, seeds %s–%s, parent→change: %s\n", m, seedv[1], seedv[ns], line; \
				printf "  median [q1, q3]: parent %s, change %s; change higher in %d, lower in %d of %d pairs\n", quart(w, "parent", m), quart(w, "change", m), up, down, ns } } }' \
		$(PAIRS_DIR)/readings
	@{ cat $(PAIRS_DIR)/steal.start; date +%s.%N; awk '$$1 == "cpu" { print $$9 }' /proc/stat; } \
		| awk -v hz=$$(getconf CLK_TCK) -v cpus=$$(nproc) '{ v[NR] = $$1 } END { \
			wall = v[3] - v[1]; steal = (v[4] - v[2]) / hz; \
			printf "cpu steal over the pairs: %.1f s of %.0f s wall × %d cpus (%.1f%%)\n", steal, wall, cpus, 100 * steal / (wall * cpus) }'
	@rm -rf $(PAIRS_DIR)

# One iteration of the tracked benchmarks, wired into `make test` so they
# cannot bit-rot between perf PRs.
bench-smoke:
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x $(BENCH_DIRS)

# End-to-end smoke of the query daemon (see DESIGN.md §8): boot it on a
# free port, probe it exactly like a client would (curl /healthz and one
# /v1/throughput), and check SIGTERM drains cleanly. The /v1/throughput body
# is posted twice: the second reply must come from L1 — through the alias
# probe, since its bytes are the first's — with the first reply's key and
# result. Wired into `make test`.
SMOKE_DIR := .serve-smoke
serve-smoke:
	@rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	@go build -o $(SMOKE_DIR)/beyondft ./cmd/beyondft
	@$(SMOKE_DIR)/beyondft serve -addr 127.0.0.1:0 -cache $(SMOKE_DIR)/cache \
		-out $(SMOKE_DIR)/runs -port-file $(SMOKE_DIR)/port 2> $(SMOKE_DIR)/log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $(SMOKE_DIR)/port ] && break; sleep 0.1; done; \
	[ -s $(SMOKE_DIR)/port ] || { echo "serve-smoke: daemon never bound"; cat $(SMOKE_DIR)/log; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(cat $(SMOKE_DIR)/port); \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/healthz"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: GET /healthz -> $$code"; kill $$pid; exit 1; }; \
	body='{"topo":{"kind":"jellyfish","n":24,"degree":5,"servers":4},"tm":"permutation","x":0.5}'; \
	for n in 1 2; do \
		code=$$(curl -s -o $(SMOKE_DIR)/reply$$n -w '%{http_code}' -X POST "http://$$addr/v1/throughput" -d "$$body"); \
		[ "$$code" = 200 ] || { echo "serve-smoke: POST /v1/throughput ($$n) -> $$code"; kill $$pid; exit 1; }; \
	done; \
	grep -q '"source":"l1"' $(SMOKE_DIR)/reply2 || { echo "serve-smoke: repeated body not served from L1"; cat $(SMOKE_DIR)/reply2; kill $$pid; exit 1; }; \
	strip='s/"source":"[a-z0-9]*","duration_ms":[^,]*,//'; \
	[ "$$(sed "$$strip" $(SMOKE_DIR)/reply1)" = "$$(sed "$$strip" $(SMOKE_DIR)/reply2)" ] || { echo "serve-smoke: L1 reply differs from the computed one in key or result"; cat $(SMOKE_DIR)/reply1 $(SMOKE_DIR)/reply2; kill $$pid; exit 1; }; \
	curl -s "http://$$addr/metrics" | grep -q '^beyondftd_alias_hits_total 1$$' || { echo "serve-smoke: the L1 reply did not come from the alias probe"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: daemon exited non-zero"; cat $(SMOKE_DIR)/log; exit 1; }; \
	grep -q 'drained cleanly' $(SMOKE_DIR)/log || { echo "serve-smoke: no clean drain"; cat $(SMOKE_DIR)/log; exit 1; }; \
	echo "serve-smoke: ok ($$addr: /healthz 200, /v1/throughput 200 computed then 200 from L1 by alias with equal key and result, clean drain)"; \
	rm -rf $(SMOKE_DIR)

# End-to-end smoke of the cluster tier (DESIGN.md §14): three in-process
# nodes on one consistent-hash ring at replication factor 2 with gossip
# membership serve a mixed query/batch workload; one node is killed mid-run
# (survivors evict it via gossip, not operator action) and later rejoins
# under its old URL with an empty cache. Every result must be byte-identical
# to a standalone node with ZERO duplicate computes fleet-wide — the kill
# loses no cached bytes and the rejoined node warms itself entirely from
# peers. Wired into `make test`.
cluster-smoke:
	go test -run '^TestClusterSmoke$$' -count=1 ./internal/cluster

# Latency CDFs for the cluster tier: open-loop Poisson load (beyondft
# loadgen) against a 1-node and then a 3-node `beyondft serve` deployment; loadgen prints
# each run record, latency CDF included, on stdout. Fixed ports, so this is
# a manual target, not part of `make test`.
LOADGEN_DIR := .bench-cluster
LOADGEN_RPS := 300
LOADGEN_DUR := 15s
LOADGEN_PORTS := 19381 19382 19383
bench-cluster:
	@rm -rf $(LOADGEN_DIR) && mkdir -p $(LOADGEN_DIR)
	@go build -o $(LOADGEN_DIR)/beyondft ./cmd/beyondft
	@$(LOADGEN_DIR)/beyondft serve -addr 127.0.0.1:19380 -cache $(LOADGEN_DIR)/c0 -out '' \
		2> $(LOADGEN_DIR)/log0 & \
	pid=$$!; \
	for i in $$(seq 1 100); do curl -sf -o /dev/null http://127.0.0.1:19380/readyz && break; sleep 0.1; done; \
	$(LOADGEN_DIR)/beyondft loadgen -targets http://127.0.0.1:19380 -rps $(LOADGEN_RPS) \
		-duration $(LOADGEN_DUR) -name 1node \
		|| { kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "bench-cluster: 1-node daemon exited non-zero"; cat $(LOADGEN_DIR)/log0; exit 1; }
	@peers=$$(for p in $(LOADGEN_PORTS); do printf ',http://127.0.0.1:%s' $$p; done); peers=$${peers#,}; \
	pids=""; \
	for p in $(LOADGEN_PORTS); do \
		$(LOADGEN_DIR)/beyondft serve -addr 127.0.0.1:$$p -cache $(LOADGEN_DIR)/c$$p -out '' \
			-self http://127.0.0.1:$$p -peers "$$peers" \
			-replication 2 -gossip-interval 250ms 2> $(LOADGEN_DIR)/log$$p & \
		pids="$$pids $$!"; \
	done; \
	for p in $(LOADGEN_PORTS); do \
		for i in $$(seq 1 100); do curl -sf -o /dev/null http://127.0.0.1:$$p/readyz && break; sleep 0.1; done; \
	done; \
	$(LOADGEN_DIR)/beyondft loadgen -targets "$$peers" -rps $(LOADGEN_RPS) \
		-duration $(LOADGEN_DUR) -name 3node \
		|| { kill $$pids 2>/dev/null; exit 1; }; \
	kill -TERM $$pids; \
	for pid in $$pids; do wait $$pid || { echo "bench-cluster: a 3-node daemon exited non-zero"; exit 1; }; done; \
	echo "bench-cluster: ok (1node and 3node run records above)"; \
	rm -rf $(LOADGEN_DIR)

# Everything: one benchmark per paper table/figure plus micro/ablation
# benches. Set BEYONDFT_PRINT=1 to also print the regenerated rows.
bench-all:
	go test -timeout 0 -bench=. -benchmem ./...

# The paper's tables and figures, printed; no cache, no artifacts.
figures:
	go run ./cmd/beyondft run -no-cache -out= -only 'table1,fig*'

figures-full:
	go run ./cmd/beyondft run -no-cache -out= -full -only 'table1,fig*'

# Parallel, cached evaluation of the whole registry (see DESIGN.md §6).
run:
	go run ./cmd/beyondft run

examples:
	go run ./examples/quickstart
	go run ./examples/routing
	go run ./examples/throughputprop
	go run ./examples/skewed
	go run ./examples/rotornet

clean:
	go clean ./...
