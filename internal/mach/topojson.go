package mach

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"platinum/internal/sim"
)

// The on-disk topology format. TOPOLOGY.md is the normative
// specification; these structs are its implementation. Unknown fields
// are rejected so typos fail loudly instead of silently describing a
// different machine.

// topoFile is the root JSON object.
type topoFile struct {
	Name      string        `json:"name"`
	Base      string        `json:"base"`
	Nodes     int           `json:"nodes"`
	PageWords int           `json:"page_words"`
	Latencies *topoLatency  `json:"latencies_ns"`
	Distance  *topoDistance `json:"distance"`
	Levels    []topoLevel   `json:"switch_levels"`
	Tiers     []topoTier    `json:"tiers"`
}

// topoLatency overrides individual base cost constants, in nanoseconds
// (except block_xfer_occupancy_permille). Zero/absent fields keep the
// base preset's value.
type topoLatency struct {
	LocalRead          int `json:"local_read"`
	LocalWrite         int `json:"local_write"`
	RemoteRead         int `json:"remote_read"`
	RemoteWrite        int `json:"remote_write"`
	BlockCopyPerWord   int `json:"block_copy_per_word"`
	LocalOccupancy     int `json:"local_occupancy"`
	RemoteOccupancy    int `json:"remote_occupancy"`
	InterruptDispatch  int `json:"interrupt_dispatch"`
	InterruptHandle    int `json:"interrupt_handle"`
	ATCReload          int `json:"atc_reload"`
	BlockXferOccupancy int `json:"block_xfer_occupancy_permille"`
}

// topoDistance describes the distance matrix.
type topoDistance struct {
	Kind        string  `json:"kind"`
	ClusterSize int     `json:"cluster_size"`
	Near        int     `json:"near"`
	Far         int     `json:"far"`
	Local       int     `json:"local"`
	Rows        [][]int `json:"rows"`
}

// topoLevel describes one switch contention level, identifying domains
// either by contiguous cluster size or by an explicit per-node map.
type topoLevel struct {
	ClusterSize int   `json:"cluster_size"`
	DomainOf    []int `json:"domain_of"`
	PerWordNS   int   `json:"per_word_ns"`
}

// topoTier assigns one memory tier to a list of nodes; unlisted nodes
// stay on base DRAM.
type topoTier struct {
	Name     string `json:"name"`
	NodeList []int  `json:"nodes"`
	ReadMul  int    `json:"read_mul"`
	WriteMul int    `json:"write_mul"`
}

// A topology file is untrusted input, so the loader bounds it to
// machines the simulator can build and whose costs cannot overflow
// virtual time (TOPOLOGY.md, "Loader limits").
const (
	maxTopoNodes     = 1024
	maxTopoPageWords = 1 << 16
	maxTopoNS        = 1_000_000       // any cost constant or per-word switch time: 1 ms
	maxTopoMul       = 100 * DistScale // any distance or tier multiplier: 100x
)

// checkRange reports an error naming field when v lies outside [0, max].
func checkRange(field string, v, max int) error {
	if v < 0 || v > max {
		return fmt.Errorf("mach: topology: %s = %d, must be in [0, %d]", field, v, max)
	}
	return nil
}

// ParseTopology decodes the JSON topology format specified in
// TOPOLOGY.md and returns a validated Topology. Unknown fields and
// values outside the loader limits are errors.
func ParseTopology(data []byte) (*Topology, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f topoFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("mach: topology: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("mach: topology: trailing data after JSON object")
	}

	var base Config
	switch f.Base {
	case "", "butterfly-plus":
		base = DefaultConfig()
	case "butterfly-1":
		base = Butterfly1Config()
	default:
		return nil, fmt.Errorf("mach: topology: unknown base %q (want \"butterfly-plus\" or \"butterfly-1\")", f.Base)
	}
	if err := checkRange("nodes", f.Nodes, maxTopoNodes); err != nil {
		return nil, err
	}
	if err := checkRange("page_words", f.PageWords, maxTopoPageWords); err != nil {
		return nil, err
	}
	if f.Nodes != 0 {
		base.Nodes = f.Nodes
	}
	if f.PageWords != 0 {
		base.PageWords = f.PageWords
	}
	if l := f.Latencies; l != nil {
		var bad error
		setNS := func(field string, dst *sim.Time, ns int) {
			if err := checkRange("latencies_ns."+field, ns, maxTopoNS); err != nil && bad == nil {
				bad = err
			}
			if ns != 0 {
				*dst = sim.Time(ns) * sim.Nanosecond
			}
		}
		setNS("local_read", &base.LocalRead, l.LocalRead)
		setNS("local_write", &base.LocalWrite, l.LocalWrite)
		setNS("remote_read", &base.RemoteRead, l.RemoteRead)
		setNS("remote_write", &base.RemoteWrite, l.RemoteWrite)
		setNS("block_copy_per_word", &base.BlockCopyPerWord, l.BlockCopyPerWord)
		setNS("local_occupancy", &base.LocalOccupancy, l.LocalOccupancy)
		setNS("remote_occupancy", &base.RemoteOccupancy, l.RemoteOccupancy)
		setNS("interrupt_dispatch", &base.InterruptDispatch, l.InterruptDispatch)
		setNS("interrupt_handle", &base.InterruptHandle, l.InterruptHandle)
		setNS("atc_reload", &base.ATCReload, l.ATCReload)
		if bad == nil {
			bad = checkRange("latencies_ns.block_xfer_occupancy_permille", l.BlockXferOccupancy, 1000)
		}
		if bad != nil {
			return nil, bad
		}
		if l.BlockXferOccupancy != 0 {
			base.BlockXferOccupancy = l.BlockXferOccupancy
		}
	}

	t := &Topology{Name: f.Name, Base: base}
	n := base.Nodes

	if d := f.Distance; d != nil {
		for _, c := range []struct {
			field string
			v     int
		}{{"near", d.Near}, {"far", d.Far}, {"local", d.Local}} {
			if err := checkRange("distance."+c.field, c.v, maxTopoMul); err != nil {
				return nil, err
			}
		}
		switch d.Kind {
		case "", "uniform":
			// nil Distance: the uniform machine.
		case "clusters":
			if d.ClusterSize <= 0 {
				return nil, fmt.Errorf("mach: topology: distance kind \"clusters\" needs positive cluster_size")
			}
			if n%d.ClusterSize != 0 {
				return nil, fmt.Errorf("mach: topology: cluster_size %d does not divide %d nodes", d.ClusterSize, n)
			}
			near, far, local := d.Near, d.Far, d.Local
			if near == 0 {
				near = DistScale
			}
			if local == 0 {
				local = DistScale
			}
			if far == 0 {
				return nil, fmt.Errorf("mach: topology: distance kind \"clusters\" needs a far multiplier")
			}
			t.Distance = make([]int, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					switch {
					case i == j:
						t.Distance[i*n+j] = local
					case i/d.ClusterSize == j/d.ClusterSize:
						t.Distance[i*n+j] = near
					default:
						t.Distance[i*n+j] = far
					}
				}
			}
		case "matrix":
			if len(d.Rows) != n {
				return nil, fmt.Errorf("mach: topology: distance matrix has %d rows, machine has %d nodes", len(d.Rows), n)
			}
			t.Distance = make([]int, 0, n*n)
			for i, row := range d.Rows {
				if len(row) != n {
					return nil, fmt.Errorf("mach: topology: distance row %d has %d entries, want %d", i, len(row), n)
				}
				for _, v := range row {
					if v > maxTopoMul {
						return nil, fmt.Errorf("mach: topology: distance row %d entry %d exceeds %d", i, v, maxTopoMul)
					}
				}
				t.Distance = append(t.Distance, row...)
			}
		default:
			return nil, fmt.Errorf("mach: topology: unknown distance kind %q (want \"uniform\", \"clusters\" or \"matrix\")", d.Kind)
		}
	}

	for li, l := range f.Levels {
		var lvl SwitchLevel
		switch {
		case l.DomainOf != nil && l.ClusterSize != 0:
			return nil, fmt.Errorf("mach: topology: switch level %d sets both cluster_size and domain_of", li)
		case l.DomainOf != nil:
			lvl.Domain = l.DomainOf
		case l.ClusterSize > 0:
			if n%l.ClusterSize != 0 {
				return nil, fmt.Errorf("mach: topology: switch level %d cluster_size %d does not divide %d nodes", li, l.ClusterSize, n)
			}
			lvl.Domain = make([]int, n)
			for i := range lvl.Domain {
				lvl.Domain[i] = i / l.ClusterSize
			}
		default:
			return nil, fmt.Errorf("mach: topology: switch level %d needs cluster_size or domain_of", li)
		}
		if l.PerWordNS < 0 {
			return nil, fmt.Errorf("mach: topology: switch level %d has negative per_word_ns", li)
		}
		if l.PerWordNS > maxTopoNS {
			return nil, fmt.Errorf("mach: topology: switch level %d per_word_ns %d exceeds %d", li, l.PerWordNS, maxTopoNS)
		}
		lvl.PerWord = sim.Time(l.PerWordNS) * sim.Nanosecond
		t.Levels = append(t.Levels, lvl)
	}

	if len(f.Tiers) > 0 {
		t.Tiers = make([]MemTier, n)
		assigned := make([]bool, n)
		for ti, tier := range f.Tiers {
			if len(tier.NodeList) == 0 {
				return nil, fmt.Errorf("mach: topology: tier %d (%q) lists no nodes", ti, tier.Name)
			}
			if tier.ReadMul > maxTopoMul || tier.WriteMul > maxTopoMul {
				return nil, fmt.Errorf("mach: topology: tier %q multiplier exceeds %d", tier.Name, maxTopoMul)
			}
			for _, node := range tier.NodeList {
				if node < 0 || node >= n {
					return nil, fmt.Errorf("mach: topology: tier %q lists node %d, machine has %d nodes", tier.Name, node, n)
				}
				if assigned[node] {
					return nil, fmt.Errorf("mach: topology: node %d assigned to two tiers", node)
				}
				assigned[node] = true
				t.Tiers[node] = MemTier{Name: tier.Name, ReadMul: tier.ReadMul, WriteMul: tier.WriteMul}
			}
		}
	}

	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadTopology reads and parses a topology JSON file (see TOPOLOGY.md).
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mach: topology: %w", err)
	}
	t, err := ParseTopology(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return t, nil
}
