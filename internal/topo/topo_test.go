package topo

import (
	"errors"
	"fmt"
	"testing"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

func TestLeafSpineStructure(t *testing.T) {
	tp := LeafSpine(4, 2, 8, Options{})
	hosts := tp.Hosts()
	if len(hosts) != 32 {
		t.Fatalf("hosts: %d, want 32", len(hosts))
	}
	switches := 0
	for _, n := range tp.Nodes {
		if n.Kind == Switch {
			switches++
		}
	}
	if switches != 6 {
		t.Fatalf("switches: %d, want 4+2", switches)
	}
	// Links: per host 2 (up+down) = 64; per leaf-spine pair 2×(4×2) = 16.
	if len(tp.Links) != 64+16 {
		t.Fatalf("links: %d, want 80", len(tp.Links))
	}
	// Every link must carry a distinct (From, QID) pair.
	seen := map[[2]uint64]bool{}
	for _, l := range tp.Links {
		k := [2]uint64{uint64(l.From), uint64(l.QID)}
		if seen[k] {
			t.Fatalf("duplicate queue id %v on node %d", l.QID, l.From)
		}
		seen[k] = true
	}
}

func TestHostAddressing(t *testing.T) {
	tp := LeafSpine(2, 2, 4, Options{})
	for _, h := range tp.Hosts() {
		addr := tp.HostAddr(h)
		back, ok := tp.HostByAddr(addr)
		if !ok || back != h {
			t.Fatalf("address round trip failed for host %d (%v)", h, addr)
		}
	}
	if _, ok := tp.HostByAddr(packet.Addr4{1, 2, 3, 4}); ok {
		t.Error("unknown address resolved")
	}
}

func TestRouteIsShortestAndValid(t *testing.T) {
	tp := LeafSpine(3, 2, 4, Options{})
	hosts := tp.Hosts()
	ft := packet.FiveTuple{SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}

	// Same-leaf pair: host → leaf → host = 2 links.
	p, err := tp.Route(hosts[0], hosts[1], ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Errorf("same-leaf path length %d, want 2", len(p))
	}
	// Cross-leaf: 4 links.
	p2, err := tp.Route(hosts[0], hosts[len(hosts)-1], ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 4 {
		t.Errorf("cross-leaf path length %d, want 4", len(p2))
	}
	// Path continuity: each link starts where the previous ended.
	cur := hosts[0]
	for _, li := range p2 {
		if tp.Links[li].From != cur {
			t.Fatalf("discontinuous path at link %d", li)
		}
		cur = tp.Links[li].To
	}
	if cur != hosts[len(hosts)-1] {
		t.Error("path does not reach destination")
	}
}

func TestChainStructure(t *testing.T) {
	tp := Chain(3, Options{})
	hosts := tp.Hosts()
	if len(hosts) != 2 {
		t.Fatalf("chain hosts: %d", len(hosts))
	}
	ft := packet.FiveTuple{Proto: packet.ProtoUDP}
	p, err := tp.Route(hosts[0], hosts[1], ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Errorf("chain path length %d, want 4 (NIC + 3 switches)", len(p))
	}
	// And the reverse direction works too.
	if _, err := tp.Route(hosts[1], hosts[0], ft); err != nil {
		t.Errorf("reverse route: %v", err)
	}
}

// TestECMPRouteDeterminism: routing is a pure function of (src, dst,
// flow) — the same flow always takes the same path, and distinct flows
// between the same host pair actually spread across the equal-cost
// spine choices (otherwise "ECMP" is a single path with extra steps).
func TestECMPRouteDeterminism(t *testing.T) {
	tp := LeafSpine(4, 4, 4, Options{})
	hosts := tp.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]

	ft := packet.FiveTuple{SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP}
	ft.Src, ft.Dst = tp.HostAddr(src), tp.HostAddr(dst)
	first, err := tp.Route(src, dst, ft)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, err := tp.Route(src, dst, ft)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != len(first) {
			t.Fatalf("path length changed across calls: %d vs %d", len(p), len(first))
		}
		for j := range p {
			if p[j] != first[j] {
				t.Fatalf("route not deterministic: call %d diverged at hop %d", i, j)
			}
		}
	}

	// Vary the source port: the spine hop (index 1 of a 4-hop cross-leaf
	// path) must take more than one value across flows.
	spines := map[int]bool{}
	for port := uint16(1); port <= 64; port++ {
		f := ft
		f.SrcPort = port
		p, err := tp.Route(src, dst, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != 4 {
			t.Fatalf("cross-leaf path length %d, want 4", len(p))
		}
		spines[p[1]] = true
	}
	if len(spines) < 2 {
		t.Errorf("64 flows all hashed to one spine uplink; ECMP spread broken")
	}
}

// TestLeafSpineQueueIDEncoding pins the switch-ID layout the fabric
// demultiplexes on: host NIC queues carry switch 0, leaves 1..L, spines
// L+1..L+S, with the queue index in the low half — and SwitchIDs/
// SwitchName report exactly that inventory.
func TestLeafSpineQueueIDEncoding(t *testing.T) {
	const L, S, H = 4, 2, 8
	tp := LeafSpine(L, S, H, Options{})
	for _, l := range tp.Links {
		sw := l.QID.Switch()
		from := tp.Nodes[l.From]
		switch {
		case from.Kind == Host:
			if sw != 0 {
				t.Fatalf("host uplink %v carries switch %d, want 0", l.QID, sw)
			}
		case sw >= 1 && sw <= L:
			if want := fmt.Sprintf("leaf%d", sw-1); from.Name != want {
				t.Fatalf("switch ID %d on node %s, want %s", sw, from.Name, want)
			}
		case sw > L && sw <= L+S:
			if want := fmt.Sprintf("spine%d", sw-L-1); from.Name != want {
				t.Fatalf("switch ID %d on node %s, want %s", sw, from.Name, want)
			}
		default:
			t.Fatalf("switch ID %d out of range on %s", sw, from.Name)
		}
		// The queue index round-trips through MakeQueueID.
		if trace.MakeQueueID(sw, l.QID.Queue()) != l.QID {
			t.Fatalf("queue ID %v does not round-trip (switch %d, queue %d)",
				l.QID, sw, l.QID.Queue())
		}
	}
	ids := tp.SwitchIDs()
	if len(ids) != L+S+1 {
		t.Fatalf("SwitchIDs: %d entries, want %d (L+S+hostnic)", len(ids), L+S+1)
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("SwitchIDs not strictly ascending: %v", ids)
		}
		if tp.SwitchName(id) == "" {
			t.Fatalf("switch %d has no name", id)
		}
	}
	if tp.SwitchName(0) != "hostnic" {
		t.Errorf("SwitchName(0) = %q, want hostnic", tp.SwitchName(0))
	}
}

// TestParseSpec covers the shared -topo syntax.
func TestParseSpec(t *testing.T) {
	tp, err := ParseSpec("leafspine:4x2x8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tp.Hosts()); got != 32 {
		t.Errorf("leafspine:4x2x8 hosts = %d, want 32", got)
	}
	tp, err = ParseSpec("chain:3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tp.SwitchIDs()); got != 4 { // 3 switches + hostnic
		t.Errorf("chain:3 switch IDs = %d, want 4", got)
	}
	for _, bad := range []string{"", "leafspine", "leafspine:4x2", "leafspine:0x2x8", "chain:x", "chain:-1", "ring:4"} {
		if _, err := ParseSpec(bad, Options{}); err == nil || errors.Is(err, ErrTooLarge) {
			t.Errorf("ParseSpec(%q) = %v, want a malformed-spec error", bad, err)
		}
	}
	// Well-formed but beyond what 16-bit switch IDs and queue indices can
	// name (chain:70000 used to wrap IDs so two switches shared a store),
	// or simply huge: the named error, before anything is allocated.
	for _, big := range []string{
		"chain:70000", "chain:65535", "chain:99999999999999999999",
		"leafspine:100000x100000x1", "leafspine:40000x30000x1", "leafspine:30000x30000x1", "leafspine:2x2x40000", "leafspine:1000x1000x1",
		"fattree:64", "fattree:4294967296",
	} {
		if _, err := ParseSpec(big, Options{}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("ParseSpec(%q) = %v, want ErrTooLarge", big, err)
		}
	}
	if tp, err = ParseSpec("chain:65534", Options{}); err != nil { // the largest chain queue IDs can name
		t.Fatal(err)
	}
	checkQueueIDs(t, tp)
}

// checkQueueIDs asserts what the fabric's partition table relies on:
// SwitchIDs is strictly ascending, every switch node's queues carry one
// switch ID no other node's carry, host NIC queues carry switch 0, and no
// two links share a queue ID.
func checkQueueIDs(t *testing.T, tp *Topology) {
	t.Helper()
	ids := tp.SwitchIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("SwitchIDs not strictly ascending at %d: %d after %d", i, ids[i], ids[i-1])
		}
	}
	owner := map[uint16]NodeID{} // switch ID -> the node whose queues carry it
	swOf := map[NodeID]uint16{}
	qids := make(map[trace.QueueID]bool, len(tp.Links))
	for _, l := range tp.Links {
		if qids[l.QID] {
			t.Fatalf("queue ID %#x names two links", uint32(l.QID))
		}
		qids[l.QID] = true
		sw := l.QID.Switch()
		if tp.Nodes[l.From].Kind == Host {
			if sw != 0 {
				t.Fatalf("host %d's NIC queue carries switch ID %d", l.From, sw)
			}
			continue
		}
		if prev, ok := owner[sw]; sw == 0 || ok && prev != l.From {
			t.Fatalf("switch ID %d names nodes %d and %d", sw, prev, l.From)
		}
		if prev, ok := swOf[l.From]; ok && prev != sw {
			t.Fatalf("node %d's queues carry switch IDs %d and %d", l.From, prev, sw)
		}
		owner[sw], swOf[l.From] = l.From, sw
	}
	known := map[uint16]bool{}
	for _, id := range ids {
		known[id] = true
	}
	for sw := range owner {
		if !known[sw] {
			t.Fatalf("switch ID %d missing from SwitchIDs", sw)
		}
	}
}

// FuzzParseSpec feeds arbitrary strings to the -topo boundary: ParseSpec
// must never panic or allocate past its bounds, and whatever it accepts
// must be a topology whose switch IDs are distinct and whose every queue
// maps back to its switch.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"chain:3", "leafspine:4x2x8", "fattree:4", "chain:70000", "chain:65534",
		"leafspine:100000x100000x1", "leafspine:0x2x8", "fattree:3", "ring:4", "", "chain:-1",
		"leafspine:1x1x1x1", "fattree:99999999999999999999", "chain:+7", "leafspine:300x300x2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tp, err := ParseSpec(spec, Options{})
		if err != nil {
			return
		}
		if len(tp.Links) > maxLinks || len(tp.Nodes) > maxNodes {
			t.Fatalf("%q: %d nodes, %d links: past the bounds", spec, len(tp.Nodes), len(tp.Links))
		}
		checkQueueIDs(t, tp)
	})
}

func TestOptionsDefaults(t *testing.T) {
	tp := LeafSpine(1, 1, 1, Options{})
	for _, l := range tp.Links {
		if l.RateBps <= 0 || l.BufBytes <= 0 || l.PropDelayNs <= 0 {
			t.Fatalf("link with zero defaults: %+v", l)
		}
	}
}

// TestFatTreeStructure pins the k-ary fat-tree's shape for k=4: 4 pods
// of 2 edge + 2 agg switches, 4 cores, 16 hosts, full stripe wiring —
// and distinct (switch, queue) IDs on every link, the property the
// fabric's per-switch partition rests on.
func TestFatTreeStructure(t *testing.T) {
	tp := FatTree(4, Options{})
	if got := len(tp.Hosts()); got != 16 {
		t.Fatalf("hosts: %d, want k³/4 = 16", got)
	}
	switches := 0
	for _, n := range tp.Nodes {
		if n.Kind == Switch {
			switches++
		}
	}
	if switches != 20 {
		t.Fatalf("switches: %d, want 4 cores + 4×(2 edge + 2 agg) = 20", switches)
	}
	// Hardware switch IDs: 20 real switches + the host-NIC pseudo ID 0.
	ids := tp.SwitchIDs()
	if len(ids) != 21 || ids[0] != 0 {
		t.Fatalf("switch IDs: %d entries first=%d, want 21 starting at hostnic 0", len(ids), ids[0])
	}
	// Links: 16 host pairs ×2 + (edge↔agg) 4 pods ×2×2 ×2 + (agg↔core)
	// 4 pods ×2×2 ×2 = 32 + 32 + 32.
	if len(tp.Links) != 96 {
		t.Fatalf("links: %d, want 96", len(tp.Links))
	}
	// Queue-ID encoding: distinct (From, QID), QID.Switch consistent per
	// node, and queue indices dense per switch.
	bySwitch := map[uint16]map[uint16]bool{}
	swOf := map[NodeID]uint16{}
	for _, l := range tp.Links {
		sw := l.QID.Switch()
		if prev, ok := swOf[l.From]; ok && prev != sw {
			t.Fatalf("node %d emits queue IDs for switches %d and %d", l.From, prev, sw)
		}
		swOf[l.From] = sw
		qs := bySwitch[sw]
		if qs == nil {
			qs = map[uint16]bool{}
			bySwitch[sw] = qs
		}
		if qs[l.QID.Queue()] {
			t.Fatalf("duplicate queue %d on switch %d", l.QID.Queue(), sw)
		}
		qs[l.QID.Queue()] = true
	}
	for sw, qs := range bySwitch {
		if sw == 0 {
			continue // host NICs use the host node ID as port
		}
		for q := 0; q < len(qs); q++ {
			if !qs[uint16(q)] {
				t.Fatalf("switch %d queue indices not dense: missing %d", sw, q)
			}
		}
	}
	// Names round-trip for reports.
	if tp.SwitchName(0) != "hostnic" || tp.SwitchName(1) != "core0" {
		t.Fatalf("names: %q %q", tp.SwitchName(0), tp.SwitchName(1))
	}
}

// TestFatTreeECMP: inter-pod routes are 6 hops (NIC+edge+agg+core+agg+
// edge), deterministic per flow, and spread across multiple cores;
// intra-pod and same-edge routes take the short paths.
func TestFatTreeECMP(t *testing.T) {
	tp := FatTree(4, Options{})
	hosts := tp.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // pod 0 → pod 3

	coresSeen := map[NodeID]bool{}
	for port := 0; port < 64; port++ {
		ft := packet.FiveTuple{
			Src: tp.HostAddr(src), Dst: tp.HostAddr(dst),
			SrcPort: uint16(1000 + port), DstPort: 80, Proto: packet.ProtoTCP,
		}
		p, err := tp.Route(src, dst, ft)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != 6 {
			t.Fatalf("inter-pod path length %d, want 6", len(p))
		}
		// Same flow → identical path.
		p2, err := tp.Route(src, dst, ft)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(p) != fmt.Sprint(p2) {
			t.Fatal("ECMP route not deterministic per flow")
		}
		for _, li := range p {
			to := tp.Links[li].To
			if name := tp.Nodes[to].Name; len(name) > 4 && name[:4] == "core" {
				coresSeen[to] = true
			}
		}
	}
	if len(coresSeen) < 2 {
		t.Fatalf("64 flows used %d core switches; ECMP not spreading", len(coresSeen))
	}

	// Same-edge pair: host → edge → host.
	ft := packet.FiveTuple{SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	if p, err := tp.Route(hosts[0], hosts[1], ft); err != nil || len(p) != 2 {
		t.Fatalf("same-edge path %v err %v, want 2 links", p, err)
	}
	// Same-pod, different edge: via one aggregation switch = 4 links.
	if p, err := tp.Route(hosts[0], hosts[2], ft); err != nil || len(p) != 4 {
		t.Fatalf("intra-pod path %v err %v, want 4 links", p, err)
	}
}

// TestParseSpecFatTree covers the spec syntax and its error cases.
func TestParseSpecFatTree(t *testing.T) {
	tp, err := ParseSpec("fattree:4", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tp.Hosts()); got != 16 {
		t.Fatalf("fattree:4 hosts = %d, want 16", got)
	}
	for _, bad := range []string{"fattree:3", "fattree:0", "fattree:x", "fattree:"} {
		if _, err := ParseSpec(bad, Options{}); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
}
