package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/netsim"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// deviceBytes is the Eq. 1 wire bytes of one join on the device's own
// links: everything on a flat fleet, the root level on a tree.
func deviceBytes(w *workload, r joinRec) int {
	if w.tree {
		return r.stats.RLevels[0] + r.stats.SLevels[0]
	}
	return r.stats.TotalBytes()
}

// loadEnds returns, for every round of recs, when the last join of a
// client without priority ended: the end of that round's load.
func loadEnds(w *workload, recs []joinRec) map[int]int64 {
	ends := map[int]int64{}
	for _, r := range recs {
		if !w.clients[r.client].priority {
			ends[r.round] = max(ends[r.round], r.end)
		}
	}
	return ends
}

// underLoad reports whether r is a priority client's join that started
// while its round's load ran. On a workload with no other client every
// priority join counts.
func underLoad(w *workload, r joinRec, ends map[int]int64) bool {
	if !w.clients[r.client].priority {
		return false
	}
	end, ok := ends[r.round]
	return len(w.clients) == 1 || ok && r.start < end
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(w *workload, p *phase) ([]metric, error) {
	var all, prio []float64
	bytes := 0
	ends := loadEnds(w, p.timed)
	for _, r := range p.timed {
		if r.err != nil {
			continue
		}
		all = append(all, r.ms())
		if underLoad(w, r, ends) {
			prio = append(prio, r.ms())
		}
		bytes += deviceBytes(w, r)
	}
	n := float64(len(all))
	if len(all) < 100 || len(prio) < 100 {
		return nil, fmt.Errorf("%d joins (%d of the priority client) are too few for a p90 with ten samples beyond it", len(all), len(prio))
	}
	if w.tenants != nil {
		bytes = p.tenantBytes
	}
	return []metric{
		{"setup_s", "s", median(p.setups)},
		{"join_ms_p50", "ms", median(all)},
		{"join_ms_p90", "ms", quantile(all, 0.9)},
		{"joins_per_s", "joins/s", n / p.wall.Seconds()},
		{"device_wire_bytes_per_join", "bytes", float64(bytes) / n},
		{"cpu_ms_per_join", "ms", float64(p.cpu) / 1e6 / n},
		{"alloc_kb_per_join", "KiB", float64(p.alloc) / 1024 / n},
		{"priority_join_ms_p90", "ms", quantile(prio, 0.9)},
	}, nil
}

// covered returns the total length of the union of intervals.
func covered(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := slices.Clone(iv)
	slices.SortFunc(s, func(a, b interval) int { return int(a.start - b.start) })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.end - cur.start
			cur = x
		} else if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.end - cur.start
}

// outside is the time inside the intervals a not covered by b.
func outside(a, b []interval) int64 {
	return covered(slices.Concat(a, b)) - covered(b)
}

// layerTotals accumulates the per-layer figures of a traced phase.
type layerTotals struct {
	joins                int
	coreSelf, probeSelf  int64 // ns
	serverHandle         int64 // ns
	probes, objects      int
	leafFrames, leafSubs int
	roundTrips, packets  int
	upBytes, downBytes   int
	interiorBytes        int
	contention           float64 // ms
	contentionJoins      int
}

// fold takes the spans recorded so far, attributes them to the timed
// joins of one round and adds that round's per-layer figures to t; spans
// of other joins (the idle pass, the warm-up) are dropped. It also audits
// each join's leaf frames against its Stats by Eq. 1, returning the
// failures.
func (t *layerTotals) fold(w *workload, recs, idle []joinRec, tr *tracing) []string {
	var audit []string
	link := netsim.DefaultLink() // every workload runs on the default link

	// Idle time of each priority job, for contention.
	idleMS := map[[2]int]float64{}
	for _, r := range idle {
		idleMS[[2]int{r.client, r.job}] = r.ms()
	}

	var leaves []leafSpan
	if tr.leaves != nil {
		_, leaves = tr.leaves.take()
		slices.SortFunc(leaves, func(a, b leafSpan) int { return int(a.start - b.start) })
	}
	probes := make([][]probeSpan, len(tr.recorders))
	for c, rec := range tr.recorders {
		probes[c], _ = rec.take()
		slices.SortFunc(probes[c], func(a, b probeSpan) int { return int(a.start - b.start) })
	}
	// inWindow returns the index range of the spans, sorted by start,
	// that start inside [s, e].
	inWindow := func(n int, start func(i int) int64, s, e int64) (lo, hi int) {
		lo = sort.Search(n, func(i int) bool { return start(i) >= s })
		hi = sort.Search(n, func(i int) bool { return start(i) > e })
		return lo, hi
	}

	ends := loadEnds(w, recs)
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		t.joins++
		ps := probes[r.client]
		lo, hi := inWindow(len(ps), func(i int) int64 { return ps[i].start }, r.start, r.end)
		var piv []interval
		for _, sp := range ps[lo:hi] {
			piv = append(piv, sp.interval)
			t.probes += int(sp.probes)
			t.objects += int(sp.objects)
		}
		t.coreSelf += (r.end - r.start) - covered(piv)

		lo, hi = inWindow(len(leaves), func(i int) int64 { return leaves[i].start }, r.start, r.end)
		var liv []interval
		eq1 := 0
		for _, sp := range leaves[lo:hi] {
			liv = append(liv, sp.interval)
			t.leafFrames++
			t.leafSubs += int(sp.subs)
			t.serverHandle += sp.end - sp.start
			eq1 += link.TB(int(sp.req)) + link.TB(int(sp.resp))
		}
		t.probeSelf += outside(piv, liv)

		st := r.stats
		t.roundTrips += st.R.Queries + st.S.Queries
		t.packets += st.R.Packets + st.S.Packets
		t.upBytes += st.R.UpWireBytes + st.S.UpWireBytes
		t.downBytes += st.R.DownWireBytes + st.S.DownWireBytes
		leafBytes := st.TotalBytes()
		if w.tree {
			nr, ns := len(st.RLevels), len(st.SLevels)
			leafBytes = st.RLevels[nr-1] + st.SLevels[ns-1]
			t.interiorBytes += st.TotalBytes() - leafBytes
		}
		if tr.leaves != nil && eq1 != leafBytes {
			audit = append(audit, fmt.Sprintf("%s: leaf frames recompute to %d bytes by Eq. 1, Stats hold %d at the leaf level",
				w.clients[r.client].jobs[r.job].label, eq1, leafBytes))
		}

		if ms, ok := idleMS[[2]int{r.client, r.job}]; ok && underLoad(w, r, ends) {
			t.contention += r.ms() - ms
			t.contentionJoins++
		}
	}
	return audit
}

// layerMetrics turns the totals into the reported per-layer metrics.
func layerMetrics(w *workload, p *phase, overheadPct float64) []metric {
	t := p.layers
	n := float64(t.joins)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	probesPerFrame := ratio(t.leafSubs, t.leafFrames)
	leafPerProbe := ratio(t.leafSubs, t.probes)
	if w.tenants != nil {
		// No leaf level on a repro.Server: frames come from the tenant
		// meters, and on its flat fleet every probe is one sub-request.
		probesPerFrame = ratio(t.probes, p.tenantFrames)
	}
	contention := 0.0
	if t.contentionJoins > 0 {
		contention = t.contention / float64(t.contentionJoins)
	}
	return []metric{
		{"core.self_ms_per_join", "ms", ms(t.coreSelf)},
		{"core.probes_per_join", "count", float64(t.probes) / n},
		{"core.objects_fetched_per_join", "count", float64(t.objects) / n},
		// Probe time outside leaf round trips is the client's on a flat
		// fleet and mostly the router's on a sharded one; with no modelled
		// RTT on any workload, both metrics read it.
		{"client.wait_ms_per_join", "ms", ms(t.probeSelf)},
		{"client.probes_per_frame", "ratio", probesPerFrame},
		{"netsim.round_trips_per_join", "count", float64(t.roundTrips) / n},
		{"netsim.packets_per_join", "count", float64(t.packets) / n},
		{"netsim.up_wire_bytes_per_join", "bytes", float64(t.upBytes) / n},
		{"netsim.down_wire_bytes_per_join", "bytes", float64(t.downBytes) / n},
		{"shard.self_ms_per_join", "ms", ms(t.probeSelf)},
		{"shard.leaf_requests_per_probe", "ratio", leafPerProbe},
		{"shard.interior_wire_bytes_per_join", "bytes", float64(t.interiorBytes) / n},
		{"server.handle_ms_per_join", "ms", ms(t.serverHandle)},
		{"server.requests_per_join", "count", float64(t.leafSubs) / n},
		{"repro.contention_ms_per_join", "ms", contention},
		{"trace.overhead_pct", "%", overheadPct},
	}
}
