# Repository checks. `make check` is the single pre-merge gate:
# formatting, module hygiene, vet, build, the full test suite, the
# race-detector pass over the parallel engine and the serving daemon,
# and the golden-run regression diff.

GO ?= go

.PHONY: check fmt tidy vet build test race golden golden-update bench-parallel bench-smoke chaos chaos-serve fuzz-buddy fuzz-serve cover serve-smoke cluster-smoke examples

check: fmt tidy vet build test race golden

# gofmt as a gate: fail listing the offending files, not rewriting
# them — CI must never mutate the tree.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt: files need gofmt:"; echo "$$out"; exit 1; fi

# go.mod/go.sum must be tidy as committed.
tidy:
	$(GO) mod tidy -diff

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scheduler and the parallel-determinism guards under the race
# detector: concurrency bugs in the experiment engine show up here,
# including jobs recycling each other's pooled arrays and nodes
# (TestParallelRecycledJobsIsolated). The telemetry determinism tests
# ride along — TraceSet/Reporter are fed concurrently from all
# workers. The serving daemon, its disk fault plane, the metrics
# registry, the cluster layer's heartbeat loop, the per-length slice
# pools themselves (internal/pool), the cache package's shared lane
# pools, and the OS model's pooled frame arrays, buddy links and
# page-table nodes (mm, pagetable, vm) run whole.
race:
	$(GO) test -race ./internal/sched ./internal/experiments -run 'Parallel|GoldenHistograms|TraceEvents'
	$(GO) test -race -count=1 ./internal/server ./internal/server/faultfs ./internal/obs ./internal/cluster ./internal/pool ./internal/cache ./internal/mm ./internal/pagetable ./internal/vm

# Golden-run regression diff: re-runs the golden experiment subset and
# byte-compares its metrics JSON against internal/experiments/testdata/
# goldens, and checks every registry report and rendered table against
# its pinned SHA-256 in goldens/registry.sha256 (see EXPERIMENTS.md).
golden:
	$(GO) test ./internal/experiments -run 'TestGoldens|TestTextMatchesRun'

# Regenerate the goldens and the registry pins after an intended
# simulator change; review the resulting diff before committing it.
golden-update:
	$(GO) test ./internal/experiments -run 'TestGoldens|TestTextMatchesRun' -update

# Wall-clock scaling of the parallel experiment engine on the quick
# Figure 18 evaluation (identical output at every width; see
# EXPERIMENTS.md for recorded numbers).
bench-parallel:
	$(GO) test -bench 'Registry/fig18$$' -cpu 1,4,8 -benchtime 3x -run '^$$' .

# The repository benchmark (bench/) is a Go module of its own, so the
# root `go test ./...` never compiles it. Its smoke test runs every
# workload briefly against the current tree (~12 s).
bench-smoke:
	cd bench && $(GO) test -count=1 .

# Chaos soak: fault injection at every site with the invariant auditors
# armed — injected failures must surface as structured records, the
# surviving jobs must render, and the degraded report must be
# byte-identical at every scheduler width (see DESIGN.md).
chaos:
	$(GO) test ./internal/experiments -run TestChaos -count=1 -v

# Serving-path chaos: SIGKILL coltd mid-load and assert the journal
# replays every accepted job with byte-identical reports on restart,
# then boot under a total-fsync-failure storm and assert the daemon
# degrades to memory-only serving instead of dying (see DESIGN.md §12).
chaos-serve:
	./scripts/chaos_serve.sh

# Short buddy-allocator fuzz runs with the free-list auditor asserted
# after every operation: random alloc/free/compact histories, then the
# bulk calls (AllocPages, run-wise FreeRange) against their one-frame
# twins (CI runs the corpora only, via `make test`).
fuzz-buddy:
	$(GO) test ./internal/mm -run '^$$' -fuzz FuzzBuddyAllocFree -fuzztime 30s
	$(GO) test ./internal/mm -run '^$$' -fuzz FuzzBuddyBulkMatchesSequential -fuzztime 30s

# Short fuzz runs of the serving layer's untrusted inputs: submit
# bodies through canonicalization (limits, hash stability, spelled-out
# options), journal tails after a sealed prefix, a cache directory
# whose entry and sidecar are replaced by fuzzed bytes beside a fuzzed
# stale index.json that must change nothing (nothing unverified is
# served), and the cluster's two peer inputs: heartbeat bodies (the
# ring stays within the configured fleet) and peer-fill responses
# (only bytes matching their claimed SHA-256 are returned). CI runs
# the corpora only, via `make test`.
fuzz-serve:
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzCanonicalize -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzJournalReplay -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzCacheOpen -fuzztime 30s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzHeartbeat -fuzztime 30s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzFetchReport -fuzztime 30s

# Serve-path smoke: boot coltd on an ephemeral port, submit a quick
# table1 job, assert the identical resubmission is a byte-identical
# cache hit with no extra simulation, and drain cleanly on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Cluster smoke: boot a 3-node fleet with static -peers, assert ring
# convergence on readyz, one fleet-wide simulation for a spec
# submitted through two nodes (ownership proxying), byte-identical
# reports through every node (peer cache fill), then SIGKILL a node
# and assert the survivors shrink the ring and re-serve every hash
# from cache.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Run the five examples; any non-zero exit fails. Three of them
# (quickstart, bigdata, fragmentation) print the colt package's
# numbers, so this is what keeps them running (~4 s).
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Statement-coverage gate: each package listed in .coverage-floor (the
# observability stack, the OS memory model and its vm layer, the
# cluster layer, the fault core, the page table, the data caches, the
# load generator with its coltload command, the TLB structures
# (internal/core), the page walker (internal/mmu), the serving
# layer's spec boundary (internal/server), the experiments CLI, the
# scheduler (internal/sched), the per-job slice pools (internal/pool),
# the front ends over the engine: the colt package (.), coltsim,
# contig and replay, and the engine itself: internal/experiments and
# its table and summary helpers (internal/stats)) must meet its
# checked-in minimum.
cover:
	@set -e; \
	while read -r pkg floor; do \
		case "$$pkg" in ''|\#*) continue;; esac; \
		pct=$$($(GO) test -count=1 -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		echo "$$pkg: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p + 0 >= f + 0) }' || \
			{ echo "cover: $$pkg coverage $$pct% fell below the $$floor% floor"; exit 1; }; \
	done < .coverage-floor
