#!/bin/sh
# check-pt.sh — the CI page-table-variants lane.
#
# Runs the core cost-table pins: PTHome walk charges, PTReplicate
# write-through charges, and the batched-shootdown invariants — in
# particular that a forced batch flush pays the first-target
# ShootdownSync once per flush, never once per coalesced entry — plus
# the span-reconciliation gates covering the pmap_walk, pt_replicate and
# batch_flush causes on gauss, mergesort, and a 256-node clustered
# TopoMix.
#
# The pt-variants quick sweep is not rerun here: the tier-1 digest gate
# (TestAllExperimentsRunQuick in internal/exp) runs it, conservation
# checks included, and pins its table to a committed digest.
#
# Usage (from the repository root): ./scripts/check-pt.sh
set -eu

echo "check-pt: core cost pins + span reconciliation..."
go test -count=1 -run 'TestPT|TestBatch|TestATC' ./internal/core/
go test -count=1 -run 'TestSpansReconcile.*PT' ./internal/apps/

echo "check-pt: OK"
