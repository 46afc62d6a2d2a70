package topo

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// What a spec may describe. Queue IDs are 16 bits of hardware switch ID
// (0 is the host-NIC pseudo switch) and 16 bits of queue index (a host's
// NIC queue is indexed by its node ID), so a topology past either count
// would hand two switches one ID — and one store — silently. The link
// bound keeps an untrusted spec from making ParseSpec allocate at will.
const (
	maxSwitches = 1<<16 - 1
	maxNodes    = 1 << 16
	maxLinks    = 1 << 20
)

// ErrTooLarge is wrapped by ParseSpec's error for a well-formed spec
// whose topology exceeds those bounds.
var ErrTooLarge = errors.New("topology too large")

// checkSize refuses a topology of the given dimensions. Callers bound
// every parsed dimension by maxNodes first (dim), so the products they
// pass cannot overflow.
func checkSize(spec string, switches, hosts, links int64) error {
	if switches > maxSwitches || switches+hosts > maxNodes || links > maxLinks {
		return fmt.Errorf("topo: spec %q: %w: %d switches, %d nodes, %d links (limits %d, %d, %d)",
			spec, ErrTooLarge, switches, switches+hosts, links, maxSwitches, maxNodes, maxLinks)
	}
	return nil
}

// dim parses one positive dimension of a spec.
func dim(spec, s, want string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	switch {
	case v > maxNodes && (err == nil || errors.Is(err, strconv.ErrRange)):
		return 0, fmt.Errorf("topo: spec %q: %w: dimension %s", spec, ErrTooLarge, s)
	case err != nil || v < 1:
		return 0, fmt.Errorf("topo: spec %q: %s", spec, want)
	}
	return v, nil
}

// ParseSpec builds a topology from a compact textual description — the
// shared syntax of every tool that takes a -topo flag (pqrun, tracegen)
// and of the examples:
//
//	chain:N           hostA — s1 — … — sN — hostB
//	leafspine:LxSxH   L leaf switches, S spines, H hosts per leaf
//	fattree:K         k-ary fat-tree (K even): K pods, (K/2)² cores, K³/4 hosts
//
// opt tunes link parameters exactly as the constructors do. The spec is
// untrusted input (a CLI string): anything malformed, and anything whose
// switches, nodes or links exceed what queue IDs can name (ErrTooLarge),
// is an error, never a panic or a silently aliased switch.
func ParseSpec(spec string, opt Options) (*Topology, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("topo: spec %q: want kind:args (chain:N, leafspine:LxSxH or fattree:K)", spec)
	}
	switch kind {
	case "chain":
		n, err := dim(spec, arg, "chain wants a positive switch count")
		if err == nil {
			err = checkSize(spec, n, 2, 2*(n+1))
		}
		if err != nil {
			return nil, err
		}
		return Chain(int(n), opt), nil
	case "leafspine":
		parts := strings.Split(arg, "x")
		if len(parts) != 3 {
			return nil, fmt.Errorf("topo: spec %q: leafspine wants LxSxH", spec)
		}
		var d [3]int64
		for i, p := range parts {
			var err error
			if d[i], err = dim(spec, p, "leafspine wants three positive dimensions"); err != nil {
				return nil, err
			}
		}
		leaves, spines, perLeaf := d[0], d[1], d[2]
		if err := checkSize(spec, leaves+spines, leaves*perLeaf, 2*leaves*(perLeaf+spines)); err != nil {
			return nil, err
		}
		return LeafSpine(int(leaves), int(spines), int(perLeaf), opt), nil
	case "fattree":
		k, err := dim(spec, arg, "fattree wants an even k >= 2")
		if err == nil && k%2 != 0 {
			err = fmt.Errorf("topo: spec %q: fattree wants an even k >= 2", spec)
		}
		if err == nil {
			// (k/2)² cores and k pods of k/2 edge + k/2 aggregation
			// switches; k/2 hosts per edge; host, edge–agg and agg–core
			// links, both directions.
			half := k / 2
			err = checkSize(spec, half*half+k*k, k*half*half, 2*k*half*half+4*k*half*half)
		}
		if err != nil {
			return nil, err
		}
		return FatTree(int(k), opt), nil
	default:
		return nil, fmt.Errorf("topo: spec %q: unknown kind %q (chain, leafspine, fattree)", spec, kind)
	}
}
