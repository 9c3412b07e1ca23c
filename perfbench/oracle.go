package main

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"

	"rhhh"
	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
)

// kv is one prefix and its exact weight over one pass of the pool.
type kv struct{ key, w uint64 }

// oracle holds the exact weight of every prefix at every lattice node over
// one pass of the pool; whole passes scale it.
type oracle struct {
	dom   *hierarchy.Domain[uint64]
	nodes [][]kv // per node, sorted by key
}

func newOracle(dom *hierarchy.Domain[uint64], p *pool) *oracle {
	o := &oracle{dom: dom, nodes: make([][]kv, dom.Size())}
	tmp := make([]kv, len(p.keys))
	for node := range o.nodes {
		for i, k := range p.keys {
			tmp[i] = kv{dom.Mask(k, node), p.ws[i]}
		}
		slices.SortFunc(tmp, func(a, b kv) int { return cmp.Compare(a.key, b.key) })
		out := tmp[:0] // compacts in place: out never passes the read index
		for _, e := range tmp {
			if n := len(out); n > 0 && out[n-1].key == e.key {
				out[n-1].w += e.w
			} else {
				out = append(out, e)
			}
		}
		o.nodes[node] = slices.Clone(out)
	}
	return o
}

// freq is the exact per-pass weight of prefix key at node.
func (o *oracle) freq(node int, key uint64) uint64 {
	s := o.nodes[node]
	i, ok := slices.BinarySearchFunc(s, key, func(e kv, k uint64) int { return cmp.Compare(e.key, k) })
	if !ok {
		return 0
	}
	return s[i].w
}

// hh is a reported prefix in the lattice's own terms.
type hh struct {
	node         int
	key          uint64
	lower, upper float64
}

func fromResults(rs []core.Result[uint64]) []hh {
	out := make([]hh, len(rs))
	for i, r := range rs {
		out[i] = hh{r.Node, r.Key, r.Lower, r.Upper}
	}
	return out
}

func fromHeavyHitters(dom *hierarchy.Domain[uint64], hs []rhhh.HeavyHitter) ([]hh, error) {
	out := make([]hh, len(hs))
	for i, h := range hs {
		node, ok := dom.NodeByBits(h.Src.Bits(), h.Dst.Bits())
		if !ok {
			return nil, fmt.Errorf("no lattice node for %s", h.Text)
		}
		out[i] = hh{node, hierarchy.Pack2D(v4(h.Src.Addr()), v4(h.Dst.Addr())), h.Lower, h.Upper}
	}
	return out, nil
}

func v4(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// audit is one output's verdict against the oracle.
type audit struct {
	reported    int
	outside     int // exact frequency outside [Lower−S, Upper+S]
	slackMisses int // exact frequency outside [Lower−C, Upper+C]
	uncovered   int // prefixes ≥ θ·N + (S−C) with neither themselves nor a descendant reported
	// coverageMisses are uncovered prefixes in [θ·N, θ·N + (S−C)): a
	// correction of S instead of C would have reported them (README.md,
	// known faults). On unit weights S = C and there are none.
	coverageMisses int
	firstProblem   string
}

// check audits a reported set after passes whole passes of the pool. C is
// the engine's own core.SamplingCorrection(N, V, R, δ) = 2·Z(δ)·√(V·N/R);
// S the sampling slack from the fed weights, 2·Z(δ)·√(V·Σw²/R), computed
// from C so that S = C exactly on unit weights (Σw² = N).
func (o *oracle) check(out []hh, p *pool, passes uint64, v int, delta, theta float64) audit {
	n := float64(p.weight * passes)
	c := core.SamplingCorrection(n, v, 1, delta)
	s := c * math.Sqrt(p.sumSq/float64(p.weight))
	a := audit{reported: len(out)}
	for _, r := range out {
		f := float64(o.freq(r.node, r.key) * passes)
		if f < r.lower-s || f > r.upper+s {
			a.outside++
			if a.firstProblem == "" {
				a.firstProblem = fmt.Sprintf("%s: exact %.0f outside [%.0f, %.0f] ± S=%.0f",
					o.dom.Format(r.key, r.node), f, r.lower, r.upper, s)
			}
		}
		if f < r.lower-c || f > r.upper+c {
			a.slackMisses++
		}
	}
	min, band := theta*n, max(s-c, 0)
	for node, es := range o.nodes {
		for _, e := range es {
			if float64(e.w*passes) < min {
				continue
			}
			covered := false
			for _, r := range out {
				if o.dom.Generalizes(e.key, node, r.key, r.node) {
					covered = true
					break
				}
			}
			if !covered && float64(e.w*passes) < min+band {
				a.coverageMisses++
			} else if !covered {
				a.uncovered++
				if a.firstProblem == "" {
					a.firstProblem = fmt.Sprintf("%s: exact %d ≥ θN+(S−C)=%.0f but neither it nor a descendant is reported",
						o.dom.Format(e.key, node), e.w*passes, min+band)
				}
			}
		}
	}
	return a
}
