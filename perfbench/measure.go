package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place); 0
// for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the 0.5 quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is a/b, or 0 when b is 0: a layer that did no work on a workload
// reports zero rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMiB forces a full collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hist is a cumulative histogram read from an obs snapshot.
type hist struct{ count, sum int64 }

// probe is one reading of every counter the benchmark uses: the obs
// registries and SRSS services of every node, the Go runtime, and process
// CPU time. The difference of two probes describes one phase.
type probe struct {
	vals  map[string]int64
	hists map[string]hist

	srssAppends, srssBytes, srssReads int64

	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
	sched                        *metrics.Float64Histogram
	cpu                          time.Duration
}

var rtSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func takeProbe(regs []*obs.Registry, svcs []*srss.Service) *probe {
	p := &probe{vals: map[string]int64{}, hists: map[string]hist{}}
	for _, r := range regs {
		for _, m := range r.Snapshot().Metrics {
			if m.Hist != nil {
				h := p.hists[m.Name]
				h.count += m.Hist.Count
				h.sum += m.Hist.Sum
				p.hists[m.Name] = h
				continue
			}
			p.vals[m.Name] += m.Value
		}
	}
	for _, s := range svcs {
		st := s.Stats()
		p.srssAppends += st.Appends.Load()
		p.srssBytes += st.AppendBytes.Load()
		p.srssReads += st.Reads.Load()
	}
	ss := make([]metrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		ss[i].Name = n
	}
	metrics.Read(ss)
	p.allocs = ss[0].Value.Uint64()
	p.allocBytes = ss[1].Value.Uint64()
	p.gcCycles = ss[2].Value.Uint64()
	p.gcCPU = ss[3].Value.Float64()
	p.totalCPU = ss[4].Value.Float64()
	p.sched = ss[5].Value.Float64Histogram()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// phase is the difference between two probes.
type phase struct{ a, b *probe }

func (ph phase) val(name string) float64 { return float64(ph.b.vals[name] - ph.a.vals[name]) }

// mean is the exact mean (sum ÷ count) of the named histogram's
// observations in the phase.
func (ph phase) mean(name string) float64 {
	a, b := ph.a.hists[name], ph.b.hists[name]
	return ratio(float64(b.sum-a.sum), float64(b.count-a.count))
}

func (ph phase) histSum(name string) float64 {
	return float64(ph.b.hists[name].sum - ph.a.hists[name].sum)
}

// schedP90 is the 90th percentile of goroutine scheduling latency in the
// phase, in microseconds (bucket upper bound).
func (ph phase) schedP90() float64 {
	a, b := ph.a.sched, ph.b.sched
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.9 * float64(total)))
	var acc uint64
	for i, c := range d {
		acc += c
		if acc >= target {
			up := b.Buckets[i+1]
			if math.IsInf(up, 1) {
				up = b.Buckets[i]
			}
			return up * 1e6
		}
	}
	return 0
}

// spans collects the traced run's span durations by name, plus the client
// wall time and the part of it no span covers. One spans value per client
// goroutine; merge combines them.
type spans struct {
	mu           sync.Mutex
	ns           map[string][]int64
	wall, uncov  int64
	crossTried   int
	crossAborted int
}

func newSpans() *spans { return &spans{ns: map[string][]int64{}} }

func (s *spans) add(name string, ns int64) {
	s.mu.Lock()
	s.ns[name] = append(s.ns[name], ns)
	s.mu.Unlock()
}

// unit records one traced unit's client wall time and the part of it that
// no stage and no network span accounts for.
func (s *spans) unit(wall, uncovered int64) {
	if uncovered < 0 {
		uncovered = 0
	}
	s.mu.Lock()
	s.wall += wall
	s.uncov += uncovered
	s.mu.Unlock()
}

// medianUS is the median of the named span in microseconds (0 when the
// span never ran on this workload).
func (s *spans) medianUS(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.ns[name]
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	return quantile(xs, 0.5)
}

// wireUnit records one traced wire unit: its server stages, the network
// and queueing time around the server's span, and the server time between
// stages that no stage covers.
func (s *spans) wireUnit(lt *client.TraceResult) {
	if lt == nil || lt.Info == nil {
		return
	}
	staged := s.stages(lt.Info)
	s.add("client.net", lt.NetworkNS())
	s.unit(lt.ClientNS, lt.Info.TotalNS-staged)
}

// stages adds every server stage of a wire trace block, each under its
// stage name, and returns their total.
func (s *spans) stages(ti *wire.TraceInfo) int64 {
	var sum int64
	for _, st := range ti.Stages {
		s.add(st.Stage.String(), st.DurNS)
		sum += st.DurNS
	}
	return sum
}
