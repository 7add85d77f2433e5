GO ?= go

.PHONY: build test race lint vet bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Repo-specific contract analyzers (CoW mutation, map-order determinism,
# seeded randomness, context flow, fault contract, lock order, wire format,
# error wrapping). Any finding, including a stale //lint:ignore directive,
# exits non-zero. See DESIGN.md "Contract enforcement".
lint: vet
	$(GO) run ./cmd/dataprismlint ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
