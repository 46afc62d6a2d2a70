// Package topo describes simulated network topologies: hosts, switches,
// directed links with output queues, and path computation. A leaf-spine
// fabric constructor covers the datacenter scenarios the paper motivates
// (incast localization, per-queue latency); a linear chain covers simple
// end-to-end examples.
package topo

import (
	"fmt"
	"sort"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

// NodeID identifies a host or switch.
type NodeID int

// NodeKind distinguishes hosts from switches.
type NodeKind uint8

// Node kinds.
const (
	Host NodeKind = iota
	Switch
)

// Node is one network element.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
}

// Link is a directed edge with an output queue at its source.
type Link struct {
	From, To NodeID
	// QID identifies the output queue feeding this link (switch links
	// only; host uplinks get queues too, modeling the NIC).
	QID trace.QueueID
	// RateBps is the link speed in bits/s.
	RateBps float64
	// PropDelayNs is the propagation delay.
	PropDelayNs int64
	// BufBytes is the output queue capacity.
	BufBytes int
}

// Topology is an immutable graph.
type Topology struct {
	Nodes []Node
	Links []Link
	// adj[from] lists link indices leaving from.
	adj map[NodeID][]int
	// hostAddr maps hosts to stable IPv4 addresses (10.h.h.h).
	hostAddr map[NodeID]packet.Addr4
	byAddr   map[packet.Addr4]NodeID
	// swIDs lists the distinct hardware switch IDs carried by link queue
	// IDs, ascending; swName names each (ID 0 is the host-NIC pseudo
	// switch).
	swIDs  []uint16
	swName map[uint16]string
}

// build finalizes adjacency and host addressing.
func (t *Topology) build() {
	t.adj = map[NodeID][]int{}
	for i, l := range t.Links {
		t.adj[l.From] = append(t.adj[l.From], i)
	}
	t.hostAddr = map[NodeID]packet.Addr4{}
	t.byAddr = map[packet.Addr4]NodeID{}
	h := 1
	for _, n := range t.Nodes {
		if n.Kind == Host {
			addr := packet.Addr4{10, byte(h >> 16), byte(h >> 8), byte(h)}
			t.hostAddr[n.ID] = addr
			t.byAddr[addr] = n.ID
			h++
		}
	}
	t.swName = map[uint16]string{}
	for _, l := range t.Links {
		sw := l.QID.Switch()
		if _, seen := t.swName[sw]; seen {
			continue
		}
		name := "hostnic"
		if sw != 0 {
			name = t.Nodes[l.From].Name
		}
		t.swName[sw] = name
		t.swIDs = append(t.swIDs, sw)
	}
	sort.Slice(t.swIDs, func(i, j int) bool { return t.swIDs[i] < t.swIDs[j] })
}

// SwitchIDs returns the distinct hardware switch IDs of the topology's
// queues in ascending order. ID 0, when present, is the host-NIC pseudo
// switch: host uplink queues model the sending NIC and carry switch ID 0.
func (t *Topology) SwitchIDs() []uint16 { return t.swIDs }

// SwitchName returns a human-readable name for a hardware switch ID
// ("leaf0", "spine1", "hostnic"), or "" for unknown IDs.
func (t *Topology) SwitchName(sw uint16) string { return t.swName[sw] }

// HostAddr returns the IPv4 address assigned to a host.
func (t *Topology) HostAddr(id NodeID) packet.Addr4 { return t.hostAddr[id] }

// HostByAddr resolves an address back to its host.
func (t *Topology) HostByAddr(a packet.Addr4) (NodeID, bool) {
	id, ok := t.byAddr[a]
	return id, ok
}

// Hosts lists all host node IDs in order.
func (t *Topology) Hosts() []NodeID {
	var out []NodeID
	for _, n := range t.Nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// Path is a sequence of link indices from a source host to a destination
// host.
type Path []int

// Route computes the path for a flow. Routing is deterministic: shortest
// hop count, with equal-cost choices broken by the flow's symmetric
// FastHash (ECMP-style, so a flow always follows one path).
func (t *Topology) Route(src, dst NodeID, flow packet.FiveTuple) (Path, error) {
	if src == dst {
		return nil, fmt.Errorf("topo: src == dst (%d)", src)
	}
	// BFS computing hop distance from dst (reverse) so we can walk
	// greedily from src choosing among next hops that decrease distance.
	dist := map[NodeID]int{dst: 0}
	frontier := []NodeID{dst}
	rev := map[NodeID][]NodeID{}
	for _, l := range t.Links {
		rev[l.To] = append(rev[l.To], l.From)
	}
	for len(frontier) > 0 {
		var next []NodeID
		for _, n := range frontier {
			for _, p := range rev[n] {
				if _, seen := dist[p]; !seen {
					dist[p] = dist[n] + 1
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	if _, ok := dist[src]; !ok {
		return nil, fmt.Errorf("topo: no path %d -> %d", src, dst)
	}

	h := flow.FastHash()
	var path Path
	cur := src
	for cur != dst {
		var candidates []int
		best := dist[cur] // need a link to a node with dist = best-1
		for _, li := range t.adj[cur] {
			to := t.Links[li].To
			if d, ok := dist[to]; ok && d == best-1 {
				candidates = append(candidates, li)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("topo: routing stuck at node %d", cur)
		}
		li := candidates[h%uint64(len(candidates))]
		path = append(path, li)
		cur = t.Links[li].To
	}
	return path, nil
}

// Options tune topology construction.
type Options struct {
	LinkRateBps  float64 // default 10 Gbit/s
	HostRateBps  float64 // default = LinkRateBps
	PropDelayNs  int64   // default 1000 (1 µs)
	BufBytes     int     // default 256 KiB
	HostBufBytes int     // default = BufBytes
}

func (o *Options) defaults() {
	if o.LinkRateBps == 0 {
		o.LinkRateBps = 10e9
	}
	if o.HostRateBps == 0 {
		o.HostRateBps = o.LinkRateBps
	}
	if o.PropDelayNs == 0 {
		o.PropDelayNs = 1000
	}
	if o.BufBytes == 0 {
		o.BufBytes = 256 << 10
	}
	if o.HostBufBytes == 0 {
		o.HostBufBytes = o.BufBytes
	}
}

// LeafSpine builds a two-tier Clos fabric: nLeaf leaf switches each with
// hostsPerLeaf hosts, fully meshed to nSpine spine switches. Queue IDs
// encode (switch, port).
func LeafSpine(nLeaf, nSpine, hostsPerLeaf int, opt Options) *Topology {
	opt.defaults()
	t := &Topology{}
	id := NodeID(0)
	newNode := func(kind NodeKind, name string) NodeID {
		t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name})
		id++
		return id - 1
	}

	leaves := make([]NodeID, nLeaf)
	spines := make([]NodeID, nSpine)
	var swIndex = map[NodeID]uint16{} // switch -> hardware switch id
	swCount := uint16(1)
	for i := range leaves {
		leaves[i] = newNode(Switch, fmt.Sprintf("leaf%d", i))
		swIndex[leaves[i]] = swCount
		swCount++
	}
	for i := range spines {
		spines[i] = newNode(Switch, fmt.Sprintf("spine%d", i))
		swIndex[spines[i]] = swCount
		swCount++
	}

	ports := map[NodeID]uint16{}
	addLink := func(from, to NodeID, rate float64, buf int) {
		var qid trace.QueueID
		if sw, ok := swIndex[from]; ok {
			qid = trace.MakeQueueID(sw, ports[from])
		} else {
			// Host NIC queues use switch id 0 with a per-host port.
			qid = trace.MakeQueueID(0, uint16(from))
		}
		ports[from]++
		t.Links = append(t.Links, Link{
			From: from, To: to, QID: qid,
			RateBps: rate, PropDelayNs: opt.PropDelayNs, BufBytes: buf,
		})
	}

	for li, leaf := range leaves {
		for h := 0; h < hostsPerLeaf; h++ {
			host := newNode(Host, fmt.Sprintf("h%d_%d", li, h))
			addLink(host, leaf, opt.HostRateBps, opt.HostBufBytes)
			addLink(leaf, host, opt.LinkRateBps, opt.BufBytes)
		}
		for _, spine := range spines {
			addLink(leaf, spine, opt.LinkRateBps, opt.BufBytes)
			addLink(spine, leaf, opt.LinkRateBps, opt.BufBytes)
		}
	}
	t.build()
	return t
}

// Chain builds hostA — s1 — s2 — … — sN — hostB, with links in both
// directions, for single-path tests.
func Chain(nSwitches int, opt Options) *Topology {
	opt.defaults()
	t := &Topology{}
	id := NodeID(0)
	newNode := func(kind NodeKind, name string) NodeID {
		t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name})
		id++
		return id - 1
	}
	a := newNode(Host, "hA")
	nodes := []NodeID{a}
	swIndex := map[NodeID]uint16{}
	for i := 0; i < nSwitches; i++ {
		s := newNode(Switch, fmt.Sprintf("s%d", i))
		swIndex[s] = uint16(i + 1)
		nodes = append(nodes, s)
	}
	nodes = append(nodes, newNode(Host, "hB"))

	ports := map[NodeID]uint16{}
	link := func(from, to NodeID) {
		var qid trace.QueueID
		if sw, ok := swIndex[from]; ok {
			qid = trace.MakeQueueID(sw, ports[from])
		} else {
			qid = trace.MakeQueueID(0, uint16(from))
		}
		ports[from]++
		t.Links = append(t.Links, Link{
			From: from, To: to, QID: qid,
			RateBps: opt.LinkRateBps, PropDelayNs: opt.PropDelayNs, BufBytes: opt.BufBytes,
		})
	}
	for i := 0; i+1 < len(nodes); i++ {
		link(nodes[i], nodes[i+1])
		link(nodes[i+1], nodes[i])
	}
	t.build()
	return t
}
