#!/usr/bin/env bash
# run.sh builds the benchmark program from source and runs it with the
# given flags. Run it from the repository root:
#
#	bash perfbench/run.sh --workload gauss --seed 7 --seconds 20 --trace 0
#
# Every build output (binary, Go build cache, temporary files) goes to
# .bench_build/ in the current directory, as do the traced run's
# profile and spans. Without the simulator's sources next to perfbench/
# the build fails and the script exits non-zero.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: no simulator sources in $(pwd) (run from the repository root)" >&2
	exit 2
fi
source perfbench/env.sh
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
