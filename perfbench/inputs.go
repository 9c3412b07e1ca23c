package main

import (
	"math/rand/v2"
	"net/netip"

	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
	"rhhh/internal/vswitch"
)

// workload fixes everything a run feeds the system apart from the seed.
type workload struct {
	name string
	// Engine and query configuration.
	epsilon, delta float64
	vMul           int // V = vMul·H
	bytes          bool
	theta          float64
	// floodFrac is the share of packets sent to the victim /24 from spoofed,
	// uniformly random sources (0: no flood).
	floodFrac float64
	// servicePasses is how many times the service phase feeds the pool;
	// warmPasses of them are fed before the client starts.
	servicePasses, warmPasses int
}

var workloads = map[string]workload{
	// Fig. 6: chicago16, 2D bytes, ε=δ=0.001, 10-RHHH, packet counts.
	"paper": {name: "paper", epsilon: 0.001, delta: 0.001, vMul: 10, theta: 0.05,
		servicePasses: 1104, warmPasses: 24},
	// A byte-weighted DDoS flood on the same background under RHHH (V=H).
	"flood": {name: "flood", epsilon: 0.01, delta: 0.001, vMul: 1, bytes: true, theta: 0.05,
		floodFrac: 0.30, servicePasses: 280, warmPasses: 4},
}

const (
	dpBatch      = 32      // datapath batch, as in DPDK
	dpBlock      = 1 << 14 // packets one leg processes before the next takes over
	serviceBatch = 256     // feeder batch per Worker call
	emcEntries   = 8192    // OVS default EMC size
	bogonFrac    = 0.005
)

var (
	bogonNet  = netip.MustParsePrefix("192.0.2.0/24")
	victimNet = netip.MustParsePrefix("203.0.113.0/24")
)

// pool is the prebuilt packet set every phase replays in whole passes, in
// every form the layers take it.
type pool struct {
	pkts       []trace.Packet
	keys       []uint64 // 2D keys (source high, destination low)
	ws         []uint64 // update weights: 1, or the wire length for byte counting
	srcs, dsts []netip.Addr
	// Per pass: forwarded/dropped under the benchmark's own evaluation of
	// the rule set, total weight and Σw².
	fwd, drop uint64
	weight    uint64
	sumSq     float64
}

func addr4(a netip.Addr) hierarchy.Addr {
	b := a.As4()
	return hierarchy.AddrFromIPv4(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

func netip4(a hierarchy.Addr) netip.Addr {
	v := uint32(a.Hi >> 32)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// buildPool generates n packets from the seed: chicago16 background with a
// planted trickle of bogon sources and, on flood, the DDoS aggregate.
func buildPool(w workload, seed uint64, n int) *pool {
	cfg := trace.Profile("chicago16")
	cfg.Seed ^= seed * 0x9e3779b97f4a7c15
	gen := trace.NewSynthetic(cfg)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	bogon, victim := addr4(bogonNet.Addr()), addr4(victimNet.Addr())
	p := &pool{
		pkts: make([]trace.Packet, n),
		keys: make([]uint64, n),
		ws:   make([]uint64, n),
		srcs: make([]netip.Addr, n),
		dsts: make([]netip.Addr, n),
	}
	for i := range p.pkts {
		pk, _ := gen.Next()
		switch u := rng.Float64(); {
		case u < w.floodFrac:
			pk.SrcIP = hierarchy.AddrFromIPv4(rng.Uint32())
			pk.DstIP = hierarchy.AddrFromIPv4(uint32(victim.Hi>>32) | rng.Uint32N(256))
			pk.Proto = trace.ProtoUDP
			pk.SrcPort = uint16(1024 + rng.IntN(64512))
			pk.DstPort = 80
			pk.Length = 64 + rng.IntN(1437)
		case u < w.floodFrac+bogonFrac:
			pk.SrcIP = hierarchy.AddrFromIPv4(uint32(bogon.Hi>>32) | rng.Uint32N(256))
		}
		p.pkts[i] = pk
		p.keys[i] = pk.Key2()
		p.srcs[i], p.dsts[i] = netip4(pk.SrcIP), netip4(pk.DstIP)
		wt := uint64(1)
		if w.bytes {
			wt = uint64(pk.Length)
		}
		p.ws[i] = wt
		p.weight += wt
		p.sumSq += float64(wt) * float64(wt)
		if act := evalRules(pk); act.Drop {
			p.drop++
		} else {
			p.fwd++
		}
	}
	return p
}

// fig6Rules is the Fig. 6 rule set: default forward, a bogon drop for
// 192.0.2.0/24 and ssh steering.
func fig6Rules() []vswitch.Rule {
	return []vswitch.Rule{
		{Priority: 0, Action: vswitch.Action{OutPort: 1}},
		{Priority: 10, Match: vswitch.Match{SrcPrefix: addr4(bogonNet.Addr()), SrcBits: 24},
			Action: vswitch.Action{Drop: true}},
		{Priority: 5, Match: vswitch.Match{DstPort: 22, MatchDstPort: true, Proto: trace.ProtoTCP, MatchProto: true},
			Action: vswitch.Action{OutPort: 2}},
	}
}

// evalRules is the benchmark's own evaluation of fig6Rules.
func evalRules(p trace.Packet) vswitch.Action {
	if bogonNet.Contains(netip4(p.SrcIP)) {
		return vswitch.Action{Drop: true}
	}
	if p.Proto == trace.ProtoTCP && p.DstPort == 22 {
		return vswitch.Action{OutPort: 2}
	}
	return vswitch.Action{OutPort: 1}
}
