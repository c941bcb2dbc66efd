GO ?= go

.PHONY: build test race fmt-check lint bench-check loc loc-diff fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt-check fails when gofmt would rewrite a tracked Go file (analyzer
# testdata aside: its fixtures are laid out for their diagnostics).
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"

# lint runs the four invariant analyzers (genswap, metriclabel, looseerr,
# lockpath) over every package under the root, bench/ included, through
# their one driver: TestModuleClean, which tier-1 runs too.
lint:
	$(GO) test -count=1 -run '^TestModuleClean$$' ./internal/analysis/

# bench-check builds, vets and tests the benchmark module against this
# tree; CI runs this target. bench/ imports the tree's packages, so a
# changed symbol fails here instead of in a benchmark run.
bench-check:
	cd bench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# loc prints net non-test Go lines per package and in total — the figure
# every PR reports in CHANGES.md. Root module only: bench/ is its own
# module (the measuring instrument) and analyzer testdata is fixture
# input. Untracked files count, ignored ones do not.
LOC_FILES = git ls-files --cached --others --exclude-standard '*.go'
loc:
	@$(LOC_FILES) | grep -v -e '_test\.go$$' -e '^bench/' -e '^internal/analysis/testdata/' \
		| while read -r f; do [ -f "$$f" ] && echo "$$(wc -l < "$$f") $$(dirname "$$f")"; done \
		| awk '{ n[$$2] += $$1; t += $$1 } END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' \
		| sort -k2

# loc-diff runs loc on revision BASE, extracted into a temporary
# directory, and on the working tree, and prints both counts and the
# change for each package that moved and in total:
# make loc-diff BASE=HEAD^1. No threshold.
loc-diff:
	@test -n "$(BASE)" || { echo 'usage: make loc-diff BASE=<rev>' >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/tree" \
	&& git archive '$(BASE)' | tar -x -C "$$tmp/tree" \
	&& $(MAKE) -s --no-print-directory -f '$(CURDIR)/Makefile' -C "$$tmp/tree" loc LOC_FILES="find . -name '*.go' | cut -c3-" > "$$tmp/base" \
	&& $(MAKE) -s --no-print-directory loc > "$$tmp/now" \
	&& awk 'NR == FNR { b[$$2] = $$1; d[$$2] = 1; next } { n[$$2] = $$1; d[$$2] = 1 } \
		END { printf "%6s %6s %6s\n", "base", "now", "diff"; \
		      for (k in d) if (b[k] != n[k] || k == "total") printf "%6d %6d %+6d %s\n", b[k], n[k], n[k] - b[k], k }' "$$tmp/base" "$$tmp/now" \
		| sort -k4

# fuzz-smoke gives every native fuzz target a 10-second window on top of
# its committed seed corpus; this is the one list, and CI runs it.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzParseUpdate$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzGroundBlock$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzLexer$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzLiteralRoundTrip$$' -fuzztime=10s ./internal/sparql/
	$(GO) test -run=NONE -fuzz='^FuzzReadNTriples$$' -fuzztime=10s ./internal/rdf/
	$(GO) test -run=NONE -fuzz='^FuzzApplyDelta$$' -fuzztime=10s ./internal/fragment/
	$(GO) test -run=NONE -fuzz='^FuzzRuns$$' -fuzztime=10s ./internal/runs/
	$(GO) test -run=NONE -fuzz='^FuzzClosureIndex$$' -fuzztime=10s ./internal/lec/
	$(GO) test -run=NONE -fuzz='^FuzzFeatureIDs$$' -fuzztime=10s ./internal/lec/
	$(GO) test -run=NONE -fuzz='^FuzzCompute$$' -fuzztime=10s ./internal/partial/
	$(GO) test -run=NONE -fuzz='^FuzzSiteVectorsDecode$$' -fuzztime=10s ./internal/candidates/
	$(GO) test -run=NONE -fuzz='^FuzzStageZero$$' -fuzztime=10s ./internal/candidates/
	$(GO) test -run=NONE -fuzz='^FuzzFrame$$' -fuzztime=10s ./internal/remote/
	$(GO) test -run=NONE -fuzz='^FuzzExecute$$' -fuzztime=10s ./internal/engine/
	$(GO) test -run=NONE -fuzz='^FuzzUpdate$$' -fuzztime=10s .
