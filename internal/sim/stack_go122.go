//go:build !go1.23

package sim

var _ = simEngineRequiresGo1_23Toolchain
