#!/bin/sh
# check-topo.sh — the CI topology-sweep smoke lane.
#
# Two gates, both well under the bench-smoke budget:
#
#   1. The shipped example topologies and TOPOLOGY.md's embedded JSON
#      validate with the real loader (scripts/topocheck).
#   2. A 64-node two-level sweep point runs end to end through
#      platinum-bench -topology: the topo-custom experiment boots the
#      machine from examples/topologies/cluster-64.json, runs the
#      verified TopoMix workload under every policy, and checks the
#      per-cause conservation invariant on each run (runTopoMixAt
#      fails the experiment otherwise).
#
# The built-in sweeps' quick variants (topo-nodes, topo-skew,
# topo-tiers) are not rerun here: the tier-1 digest gate
# (TestAllExperimentsRunQuick in internal/exp) runs them, conservation
# checks included, and pins their tables to committed digests.
#
# Usage (from the repository root): ./scripts/check-topo.sh
set -eu

echo "check-topo: loader validation (TOPOLOGY.md + examples)..."
go run ./scripts/topocheck TOPOLOGY.md examples/topologies/*.json

echo "check-topo: 64-node sweep point (cluster-64.json, all policies)..."
go run ./cmd/platinum-bench -quick -topology examples/topologies/cluster-64.json -exp topo-custom

echo "check-topo: OK"
