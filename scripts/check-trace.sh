#!/bin/sh
# check-trace.sh — causal-trace export gate, run by the CI trace job.
#
# Export a Chrome trace-event JSON with platinum-report -spans from
# gauss and mergesort, and verify the JSON parses. Every -spans export
# first runs the structural validator: spans must nest (children within
# parents, no partial overlap on a track) and per-cause span durations
# must reconcile EXACTLY with the engine's Account totals; a violation
# exits nonzero.
#
# Run from the repository root: ./scripts/check-trace.sh
set -eu

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "check-trace: validated Chrome exports (gauss 32x32 and 48x48, mergesort 8192 words; 4 procs)"
go run ./cmd/platinum-report -app gauss -n 32 -procs 4 -spans "$TMP/gauss32.json" >/dev/null
go run ./cmd/platinum-report -app gauss -n 48 -procs 4 -spans "$TMP/gauss48.json" >/dev/null
go run ./cmd/platinum-report -app mergesort -n 8192 -procs 4 -spans "$TMP/mergesort.json" >/dev/null

echo "check-trace: validating JSON parses"
for f in "$TMP"/*.json; do
	go run ./scripts/jsoncheck "$f"
done

echo "check-trace: OK"
