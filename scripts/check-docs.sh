#!/bin/sh
# check-docs.sh — documentation hygiene gate, run by the CI docs job.
#
#   1. gofmt -l must be clean.
#   2. Every package (the facade plus every internal package) must carry
#      a "// Package <name> ..." comment.
#   3. The README architecture diagram must mention every package that
#      `go list ./internal/...` reports, so the walkthrough cannot
#      silently drift from the tree.
#   4. README documents every analyzer `platinum-vet -list` registers,
#      and every analyzer that README's platinum-vet bullet list or
#      EXPERIMENTS.md's analyzer table names is registered.
#   5. EXPERIMENTS.md documents every `platinum-bench -list` experiment.
#   6. TOPOLOGY.md's JSON examples and examples/topologies/*.json load.
#   7. EXPERIMENTS.md documents every telemetry JSON field.
#   8. Every `pkg.Symbol` reference to an internal package in the prose
#      docs resolves with go doc.
#   9. Every `cmd/<name>` the prose docs mention exists as a directory.
#
# Run from the repository root: ./scripts/check-docs.sh
set -eu

fail=0

# 1. Formatting.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:"
	echo "$unformatted"
	fail=1
fi

# 2. Package comments.
for dir in . internal/*/; do
	if [ "$dir" = "." ]; then
		pkg=platinum # the facade package at the repo root
	else
		pkg=$(basename "$dir")
	fi
	if ! grep -lq "^// Package $pkg " "$dir"/*.go 2>/dev/null; then
		echo "godoc: package $pkg ($dir) has no '// Package $pkg ...' comment"
		fail=1
	fi
done

# 3. README diagram covers every internal package.
for import_path in $(go list ./internal/...); do
	short=${import_path#platinum/}
	if ! grep -q "$short" README.md; then
		echo "README: architecture section does not mention $short"
		fail=1
	fi
done

# 4. README documents every analyzer cmd/platinum-vet actually
#    registers, by its registered name, and every analyzer the docs name
#    (README's "Static analysis" bullets, EXPERIMENTS.md's platinum-vet
#    table) is registered, so the analyzer docs cannot drift from the
#    suite in either direction: a deleted analyzer cannot stay
#    documented.
registered=$(go run ./cmd/platinum-vet -list | cut -f1)
for name in $registered; do
	if ! grep -q "$name" README.md; then
		echo "README: does not document analyzer '$name' (cmd/platinum-vet -list)"
		fail=1
	fi
done
readme_names=$(awk '/^## Static analysis/ { on = 1; next } /^## / { on = 0 } on' README.md |
	sed -n 's/^- \*\*`\([a-z]*\)`\*\*.*/\1/p')
experiments_names=$(awk '/^## Statically-enforced invariants/ { on = 1; next } /^## / { on = 0 } on' EXPERIMENTS.md |
	sed -n 's/^| `\([a-z]*\)` |.*/\1/p')
if [ -z "$readme_names" ] || [ -z "$experiments_names" ]; then
	echo "docs: no analyzer list found in README.md or EXPERIMENTS.md (section renamed?)"
	fail=1
fi
for name in $readme_names $experiments_names; do
	if ! echo "$registered" | grep -qx "$name"; then
		echo "docs: analyzer '$name' is documented but not registered (cmd/platinum-vet -list)"
		fail=1
	fi
done

# 5. EXPERIMENTS.md documents every registered experiment by id
#    (cmd/platinum-bench -list is the registry), so new sweeps — like
#    pt-variants — cannot land without a paper-vs-measured section.
for id in $(go run ./cmd/platinum-bench -list | awk '{print $1}'); do
	if ! grep -q "$id" EXPERIMENTS.md; then
		echo "EXPERIMENTS.md: does not document experiment '$id' (platinum-bench -list)"
		fail=1
	fi
done

# 6. TOPOLOGY.md's embedded JSON examples and the shipped example files
#    must parse and validate with the real loader (mach.ParseTopology),
#    so the normative spec cannot drift from the parser.
if ! go run ./scripts/topocheck TOPOLOGY.md examples/topologies/*.json; then
	echo "TOPOLOGY.md: embedded examples failed loader validation"
	fail=1
fi

# 7. EXPERIMENTS.md documents every JSON field of the telemetry metrics
#    schema (the `json:"..."` tags in internal/metrics/telemetry.go),
#    so the schema-v2 sections cannot grow undocumented fields.
for tag in $(grep -o 'json:"[a-z0-9_]*' internal/metrics/telemetry.go | cut -d'"' -f2 | sort -u); do
	if ! grep -q "\`$tag\`" EXPERIMENTS.md; then
		echo "EXPERIMENTS.md: does not document telemetry JSON field '$tag' (internal/metrics/telemetry.go)"
		fail=1
	fi
done

# 8. Every `pkg.Symbol` (or `pkg.Type.Member`) reference to an internal
#    package in the prose docs must resolve with go doc, so a deleted or
#    renamed API cannot stay documented.
pkgs=$(ls -d internal/*/ | xargs -n1 basename | paste -sd'|' -)
for ref in $(grep -ohE "\b($pkgs)\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?" \
	README.md DESIGN.md EXPERIMENTS.md CONTRIBUTING.md TOPOLOGY.md | sort -u); do
	if ! go doc "platinum/internal/${ref%%.*}" "${ref#*.}" >/dev/null 2>&1; then
		echo "docs: $ref does not resolve (go doc platinum/internal/${ref%%.*} ${ref#*.})"
		fail=1
	fi
done

# 9. Every `cmd/<name>` the prose docs mention must exist, so a deleted
#    command cannot stay documented.
for dir in $(grep -ohE "\bcmd/[a-z][a-z0-9-]*" \
	README.md DESIGN.md EXPERIMENTS.md CONTRIBUTING.md TOPOLOGY.md | sort -u); do
	if [ ! -d "$dir" ]; then
		echo "docs: $dir does not exist"
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "check-docs: FAILED"
	exit 1
fi
echo "check-docs: OK"
