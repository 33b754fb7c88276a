# env.sh is sourced by run.sh and ab.sh from the repository root. It
# points Go's build cache, temporary files, configuration and module
# path into .bench_build/, so building the benchmark reads and writes
# nothing outside the checkout, and selects the benchmark's workspace.
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK="$(pwd)/perfbench/go.work"
