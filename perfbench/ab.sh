#!/usr/bin/env bash
# ab.sh builds and runs the same-host A/B tool (cmd/bench-ab) from the
# repository root of a git checkout:
#
#	bash perfbench/ab.sh [-pairs 10] [-seconds 20] [-workloads gauss] BASE HEAD
set -euo pipefail

source perfbench/env.sh
(cd perfbench && go build -o "$out/bench-ab" ./cmd/bench-ab) >&2
exec "$out/bench-ab" "$@"
