package main

import (
	"slices"
	"time"

	"rhhh/internal/core"
	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
	"rhhh/internal/vswitch"
)

// dpLeg is one datapath configuration of the dataplane phase.
type dpLeg struct {
	name   string
	dp     *vswitch.Datapath
	eng    *core.Engine[uint64] // nil on the unmodified leg
	rep    *vswitch.DeltaReporter
	col    *vswitch.Collector
	link   *vswitch.CollectorLink
	rates  []float64 // Mpps of each dpBlock-packet block
	passes uint64
	fwd    uint64         // sum of ProcessBatch results
	timed  *timedReporter // the traced run's reporter hook
}

// engineConfig is the workload's RHHH configuration over the 2D byte lattice.
func engineConfig(w workload, dom *hierarchy.Domain[uint64], seed uint64) core.Config {
	return core.Config{Epsilon: w.epsilon, Delta: w.delta, V: w.vMul * dom.Size(), Seed: seed}
}

func newDatapath(seed uint64, hook vswitch.Hook) *vswitch.Datapath {
	var ft vswitch.FlowTable
	for _, r := range fig6Rules() {
		ft.Add(r)
	}
	return vswitch.NewDatapath(&ft, vswitch.NewEMC(emcEntries, seed), hook)
}

// buildDataplane assembles the three legs: no hook, the co-located engine
// hook, and a DeltaReporter syncing to a Collector over an in-process
// CollectorLink (vswitchd -mode distributed -sync delta). The link's pump is
// started by the caller, so a discarded set-up leaves no goroutine behind.
func buildDataplane(w workload, dom *hierarchy.Domain[uint64], seed uint64, tr *tracer) []*dpLeg {
	cfg := engineConfig(w, dom, seed)
	off := &dpLeg{name: "off", dp: newDatapath(seed, nil)}

	eng := core.New(dom, cfg)
	hook := vswitch.NewEngineHook(eng)
	if w.bytes {
		hook = vswitch.NewEngineHookBytes(eng)
	}
	on := &dpLeg{name: "hook", eng: eng, dp: newDatapath(seed, hook)}

	seng := core.New(dom, cfg)
	col := vswitch.NewCollector(dom, w.epsilon, w.delta, cfg.V)
	link := vswitch.NewCollectorLink(col, vswitch.FaultConfig{Seed: seed}, vswitch.FaultConfig{Seed: seed + 1})
	var (
		rt vswitch.ReportTransport = link
		tt *timedTransport
	)
	if tr != nil {
		tt = &timedTransport{link: link, tr: tr}
		rt = tt
	}
	rep := vswitch.NewDeltaReporter(seng, rt, 1, vswitch.ReporterOptions{Seed: seed})
	if w.bytes {
		// The reporter embeds a packet-counting hook; the byte-counting one
		// feeds the same engine through the weighted batch path.
		rep.EngineHook = vswitch.NewEngineHookBytes(seng)
	}
	sync := &dpLeg{name: "sync", eng: seng, rep: rep, col: col, link: link}
	var sh vswitch.Hook = rep
	if tr != nil {
		sync.timed = &timedReporter{rep: rep, tt: tt, tr: tr}
		sh = sync.timed
	}
	sync.dp = newDatapath(seed, sh)
	return []*dpLeg{off, on, sync}
}

// runDataplane alternates the legs in blocks of dpBlock packets, so a slow
// spell of the shared machine hits all three, until budget has passed,
// always finishing a whole pass of the pool on every leg, and calls between
// after every pass.
func runDataplane(legs []*dpLeg, p *pool, budget time.Duration, tr *tracer, between func(pass int) error) error {
	start := time.Now()
	for pass := 0; ; pass++ {
		for lo := 0; lo < len(p.pkts); lo += dpBlock {
			hi := min(lo+dpBlock, len(p.pkts))
			for _, l := range legs {
				fwd := 0
				id := tr.reserve()
				if l.timed != nil {
					l.timed.block = id
				}
				t0 := time.Now()
				for b := lo; b+dpBatch <= hi; b += dpBatch {
					fwd += l.dp.ProcessBatch(p.pkts[b : b+dpBatch])
				}
				t1 := time.Now()
				tr.record(id, "vswitch.block."+l.name, 0, t0, t1)
				l.rates = append(l.rates, float64(hi-lo)/t1.Sub(t0).Seconds()/1e6)
				l.fwd += uint64(fwd)
			}
		}
		for _, l := range legs {
			l.passes++
		}
		if err := between(pass); err != nil {
			return err
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}

// timedTransport is the traced run's ReportTransport: it delivers each report
// to the collector inline and records that delivery as a collector span.
type timedTransport struct {
	link   *vswitch.CollectorLink
	tr     *tracer
	parent int32 // the reporter span sending
	sent   bool
}

func (t *timedTransport) SendReport(frame []byte) error {
	if err := t.link.SendReport(frame); err != nil {
		return err
	}
	t.sent = true
	t0 := time.Now()
	t.link.Pump()
	t.tr.add("vswitch.collector_apply", t.parent, t0, time.Now())
	return nil
}

func (t *timedTransport) RecvAck(buf []byte) (int, bool) { return t.link.RecvAck(buf) }
func (t *timedTransport) Close() error                   { return t.link.Close() }

// timedReporter records the reporter's OnBatch calls that send a report.
type timedReporter struct {
	rep   *vswitch.DeltaReporter
	tt    *timedTransport
	tr    *tracer
	block int32 // the datapath block running
}

func (h *timedReporter) OnPacket(p trace.Packet) { h.rep.OnPacket(p) }

func (h *timedReporter) OnBatch(ps []trace.Packet) {
	id := h.tr.reserve()
	h.tt.parent, h.tt.sent = id, false
	t0 := time.Now()
	h.rep.OnBatch(ps)
	t1 := time.Now()
	if h.tt.sent {
		h.tr.record(id, "vswitch.report", h.block, t0, t1)
	}
}

// auditDataplane checks every leg against the benchmark's own rule
// evaluation and exact counts, and the collector against its engine.
func (r *run) auditDataplane(legs []*dpLeg) {
	p := r.pool
	for _, l := range legs {
		st := l.dp.Stats()
		recv := l.passes * uint64(len(p.pkts))
		r.expect(st.Received == recv, "%s: Received %d, fed %d", l.name, st.Received, recv)
		r.expect(st.Forwarded == l.passes*p.fwd && st.Dropped == l.passes*p.drop,
			"%s: Forwarded/Dropped %d/%d, rules give %d/%d", l.name, st.Forwarded, st.Dropped, l.passes*p.fwd, l.passes*p.drop)
		r.expect(st.EMCHits+st.TableHits+st.NoMatch == st.Received,
			"%s: EMCHits+TableHits+NoMatch %d != Received %d", l.name, st.EMCHits+st.TableHits+st.NoMatch, st.Received)
		r.expect(l.fwd == st.Forwarded, "%s: ProcessBatch returned %d forwarded, Stats say %d", l.name, l.fwd, st.Forwarded)
		r.count("datapath_batches", l.passes*uint64(len(p.pkts)/dpBatch), 0)
		if l.eng == nil {
			continue
		}
		r.expect(l.eng.N() == recv, "%s: engine N %d, fed %d packets", l.name, l.eng.N(), recv)
		if r.w.bytes {
			r.expect(l.eng.Weight() == l.passes*p.weight, "%s: engine weight %d, fed %d bytes", l.name, l.eng.Weight(), l.passes*p.weight)
		}
		out := slices.Clone(l.eng.Output(r.w.theta))
		r.auditOutput(l.name+" engine", fromResults(out), l.passes)
		if l.rep == nil {
			continue
		}
		err := l.rep.Flush()
		synced := err == nil && l.rep.WaitSynced(10*time.Second)
		rs := l.rep.Stats()
		r.count("sync_reports", rs.Reports, rs.SendErrors)
		r.count("sync_retransmits", rs.Retransmits, 0)
		r.expect(synced, "sync: reporter did not reach sync (err %v)", err)
		r.expect(l.col.Packets() == recv, "sync: collector packets %d, fed %d", l.col.Packets(), recv)
		cout := l.col.Output(r.w.theta)
		r.expect(slices.Equal(cout, out), "sync: collector output (%d prefixes) differs from the switch engine's (%d)", len(cout), len(out))
	}
}
