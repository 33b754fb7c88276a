package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// digests.json holds the SHA-256 digest of every checked output at the
// default seed: each quick experiment table as rendered (without the
// wall-time lines platinum-bench adds), and the canonical outputs line
// of gauss and topomix (simulated time, checksum, protocol counters).
// "gauss.counters" is the gauss line without its checksum, which no
// seed changes. Regenerate it with -write-digests after a change that
// is meant to alter simulated results, and say so in the change.
//
//go:embed digests.json
var digestFile []byte

// gate checks outputs against digests. With record set it collects the
// digests of the outputs it sees instead, for -write-digests.
type gate struct {
	want   map[string]string
	record map[string]string
}

// committedGate returns a gate holding the committed digests.
func committedGate() (*gate, error) {
	g := &gate{}
	if err := json.Unmarshal(digestFile, &g.want); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return g, nil
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// check compares the digest of output against the committed one.
func (g *gate) check(key, output string) error {
	got := digestOf(output)
	if g.record != nil {
		g.record[key] = got
		return nil
	}
	want, ok := g.want[key]
	if !ok {
		return fmt.Errorf("no committed digest for %s", key)
	}
	if got != want {
		return fmt.Errorf("%s output digest %.12s, committed %.12s; output:\n%s", key, got, want, output)
	}
	return nil
}

// recordDigests runs every workload once at the default seed and writes
// the digests of their outputs to path.
func recordDigests(path string) error {
	g := &gate{record: map[string]string{}}
	gauss := newGauss(defaultSeed, g)
	for _, w := range []workload{gauss, newTopoMix(g), newSweep(g)} {
		if err := w.iterate(&iteration{}); err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
	}
	g.record["gauss.counters"] = digestOf(gauss.last.line(false))
	b, err := json.MarshalIndent(g.record, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
