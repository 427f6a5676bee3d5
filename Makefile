.PHONY: check lint test build vet race chaos bench repobench obs

# Full gate: lint + build + tests (incl. the 20-seed chaos campaign) +
# race detector + feature slices + the repo benchmark's smoke. This is
# what CI runs.
check:
	./scripts/check.sh

lint:
	./scripts/check.sh lint

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Race coverage delegates to check.sh so the package list lives in one
# place (the Makefile copy used to drift behind it).
race:
	./scripts/check.sh race

# Fixed-seed chaos table (TestChaosSmoke: paper ring, 4 shards, split
# under load); the full randomized campaign (TestChaos) runs as part of
# `make test` / `make check` via `go test ./internal/chaos`.
chaos:
	./scripts/check.sh chaos

# The paper's evaluation (Fig 5, Table 2, §4.1–§5.2), one iteration each.
bench:
	go test -bench=. -benchtime=1x -run '^$$' .

# The repo benchmark's own module (bench/): vet, tests and a smoke run of
# every workload. `bench` above is the root module's go test -bench.
repobench:
	./scripts/check.sh repobench

# Observability slice: write-path tracing, metrics registries, and the
# admin /metrics + /trace scrapes, race detector on.
obs:
	./scripts/check.sh obs
