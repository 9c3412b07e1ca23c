package vswitch

import (
	"sync"
	"testing"
	"time"

	"rhhh/internal/hierarchy"
	"rhhh/internal/telemetry"
	"rhhh/internal/trace"
)

// TestReporterTelemetryConsistentScrape scrapes an instrumented
// DeltaReporter while its datapath goroutine builds a report on every
// packet: each scrape must show one publication of the block, so
// reports_total equals full_reports_total + delta_reports_total, as it does
// in ReporterStats.
func TestReporterTelemetryConsistentScrape(t *testing.T) {
	dom := hierarchy.NewIPv4TwoDim(hierarchy.Bytes)
	const eps, del = 0.1, 0.1 // small replicas: reports are cheap, so publications are frequent
	v := dom.Size()
	col := NewCollector(dom, eps, del, v)
	link := NewCollectorLink(col, FaultConfig{Seed: 1}, FaultConfig{Seed: 2})
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	eng := newSyncEngine(dom, eps, del, v, 42)
	rep := NewDeltaReporter(eng, link, 7, ReporterOptions{Seed: 3, Boot: 99, Now: clk.Now})
	reg := telemetry.NewRegistry()
	rep.Instrument(reg)

	gen := trace.NewSynthetic(trace.Config{Seed: 10})
	stop, reported := make(chan struct{}), make(chan struct{})
	var owner, scrapers sync.WaitGroup
	owner.Add(1)
	go func() { // the datapath: one forced report per packet
		defer owner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p, _ := gen.Next()
			rep.OnPacket(p)
			if err := rep.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
				return
			}
			link.Pump()
			if i == 0 {
				close(reported)
			}
		}
	}()
	<-reported
	const labels = `sender="7"`
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() { // scrapers
			defer scrapers.Done()
			var buf []byte
			for i := 0; i < 2000; i++ {
				buf = reg.Gather(buf[:0])
				fams, err := telemetry.ParseProm(string(buf))
				if err != nil {
					t.Errorf("scrape %d: %v", i, err)
					return
				}
				var vals [3]float64
				for k, name := range []string{
					"rhhh_reporter_reports_total",
					"rhhh_reporter_full_reports_total",
					"rhhh_reporter_delta_reports_total",
				} {
					smp, ok := telemetry.Lookup(fams, name, name, labels)
					if !ok {
						t.Errorf("scrape %d: %s{%s} missing", i, name, labels)
						return
					}
					vals[k] = smp.Value
				}
				if vals[0] == 0 || vals[0] != vals[1]+vals[2] {
					t.Errorf("scrape %d: reports_total %v != full %v + delta %v", i, vals[0], vals[1], vals[2])
					return
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	owner.Wait()
}
