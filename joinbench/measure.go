package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// joinRec is one completed (or failed) join as seen from outside.
type joinRec struct {
	client, round int
	slot, job     int
	start, end    int64 // ns from the phase epoch
	stats         core.Stats
	err           error
	wrong         string // how the answer differs from the reference; empty when it matches
}

func (r joinRec) ms() float64 { return float64(r.end-r.start) / 1e6 }

// phase is one closed-loop measurement of a workload.
type phase struct {
	warm, idle, timed []joinRec
	setups            []float64     // set-up time of each timed round's slot, or of each pooled slot, s
	wall              time.Duration // timed rounds, all clients together
	cpu               time.Duration // user+system CPU of this process during the timed rounds
	alloc             uint64        // heap bytes allocated during the timed rounds
	tenantBytes       int           // tenant meter deltas over the timed rounds (repro.Server only)
	tenantFrames      int           // tenant uplink frames over the timed rounds (repro.Server only)
	layers            layerTotals   // per-layer figures of the timed rounds (traced only)
	audit             []string      // failed accounting checks
}

// all returns every join of the phase, warm-up and idle passes included.
func (p *phase) all() []joinRec {
	return slices.Concat(p.warm, p.idle, p.timed)
}

// phaseConfig parameterises runPhase.
type phaseConfig struct {
	seconds float64
	// trace, when non-nil, sets the fleets up traced and collects spans.
	trace *tracing
	// idle runs the priority client alone on each slot before its round:
	// the baseline of repro.contention_ms_per_join.
	idle bool
	// tamper, when non-nil, corrupts every result before it is checked.
	// The benchmark's tests use it to plant a wrong answer.
	tamper func(*core.Result)
}

// cpuTime is the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runPhase drives the clients of w in a closed loop of rounds: round 0
// is the warm-up, then whole rounds are timed until cfg.seconds of them
// have passed. A slot's datasets are drawn, their reference answers
// computed, its fleets set up and their INFO fetched outside the timed
// window: before each round, or once for the whole phase on a pooled
// workload. Every answer is checked against its reference.
func runPhase(w *workload, epoch time.Time, cfg phaseConfig) (*phase, error) {
	ctx := context.Background()
	since := func() int64 { return int64(time.Since(epoch)) }
	p := &phase{}
	type slot struct {
		tgt   *target
		wants [][]answer
	}
	open := func(i int) (slot, float64, error) {
		fleets := w.slot(i)
		wants := answers(w, fleets)
		runtime.GC()
		t0 := time.Now()
		tgt, err := setUp(w, fleets, cfg.trace)
		if err != nil {
			return slot{}, 0, err
		}
		setup := time.Since(t0).Seconds()
		if err := p.prepare(ctx, w, tgt); err != nil {
			tgt.close()
			return slot{}, 0, err
		}
		return slot{tgt, wants}, setup, nil
	}
	var pool []slot
	defer func() {
		for _, s := range pool {
			s.tgt.close()
		}
	}()
	for i := 0; i < w.pool; i++ {
		s, setup, err := open(i)
		if err != nil {
			return nil, err
		}
		pool = append(pool, s)
		p.setups = append(p.setups, setup)
	}
	for i := 0; i < 2 || p.wall.Seconds() < cfg.seconds; i++ {
		var s slot
		if w.pool > 0 {
			s = pool[i%w.pool]
		} else {
			var setup float64
			var err error
			if s, setup, err = open(i); err != nil {
				return nil, err
			}
			if i > 0 {
				p.setups = append(p.setups, setup)
			}
		}
		recs, idle := p.round(ctx, w, s.tgt, i, s.wants, since, cfg)
		if w.pool == 0 {
			s.tgt.close()
		}
		if cfg.trace != nil {
			if i == 0 {
				cfg.trace.drop()
			} else {
				for _, msg := range p.layers.fold(w, recs, idle, cfg.trace) {
					p.fail("%s", msg)
				}
			}
		}
		p.idle = append(p.idle, idle...)
		if i == 0 {
			p.warm = recs
			continue
		}
		p.timed = append(p.timed, recs...)
	}
	p.auditColumns()
	return p, nil
}

// prepare fetches the INFO of a slot's fleets. On a repro.Server it
// checks that this moved each tenant's meters by exactly its INFO round
// trips: a first run's INFO falls outside its Stats.
func (p *phase) prepare(ctx context.Context, w *workload, tgt *target) error {
	before := tenantUsages(w, tgt)
	if err := tgt.prepare(ctx); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if before == nil {
		return nil
	}
	link := netsim.DefaultLink() // every workload runs on the default link
	info := 2 * (link.TB(len(wire.EncodeInfo())) + link.TB(len(wire.EncodeInfoReply(wire.Info{}))))
	for c, u := range tenantUsages(w, tgt) {
		if got := u.WireBytes - before[c].WireBytes; got != info {
			p.fail("tenant %s: preparing moved its meters by %d bytes, not the %d bytes of its INFO round trips", w.clients[c].tenant, got, info)
		}
	}
	return nil
}

// tenantUsages reads every client's tenant meters (nil unless the fleet
// is a repro.Server).
func tenantUsages(w *workload, tgt *target) []netsim.Usage {
	if tgt.tenantUsage == nil {
		return nil
	}
	out := make([]netsim.Usage, len(w.clients))
	for c := range w.clients {
		out[c] = tgt.tenantUsage(c)
	}
	return out
}

// round runs one round on a set-up slot: every client runs its passes
// concurrently with the others.
func (p *phase) round(ctx context.Context, w *workload, tgt *target, i int, wants [][]answer, since func() int64, cfg phaseConfig) (recs, idle []joinRec) {
	slot := i
	if w.pool > 0 {
		slot = i % w.pool
	}
	pass := func(c int, recs []joinRec) []joinRec {
		for ji, j := range w.clients[c].jobs {
			rec := joinRec{client: c, round: i, slot: slot, job: ji, start: since()}
			res, err := tgt.runJoin(ctx, c, j)
			rec.end = since()
			if err != nil {
				rec.err = fmt.Errorf("%s: %w", j.label, err)
			} else {
				if cfg.tamper != nil {
					cfg.tamper(res)
				}
				rec.stats = res.Stats
				rec.wrong = diffAnswer(res, j, wants[c][ji])
			}
			recs = append(recs, rec)
		}
		return recs
	}
	start := tenantUsages(w, tgt)
	if cfg.idle && i > 0 {
		for c, cl := range w.clients {
			if cl.priority {
				idle = pass(c, idle)
			}
		}
	}

	out := make([][]joinRec, len(w.clients))
	before := tenantUsages(w, tgt)
	cpu0, alloc0 := cpuTime(), heapAllocated()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, cl := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for range max(cl.passes, 1) {
				out[c] = pass(c, out[c])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu, alloc := cpuTime()-cpu0, heapAllocated()-alloc0
	recs = slices.Concat(out...)
	if i > 0 {
		p.wall += wall
		p.cpu += cpu
		p.alloc += alloc
	}
	if start != nil {
		p.auditTenants(w, start, before, tenantUsages(w, tgt), slices.Concat(idle, recs), i > 0)
	}
	return recs, idle
}

// diffAnswer describes how a join's answer differs from the reference:
// its pairs, or for an iceberg semi-join its R IDs. It returns "" when
// they are the same.
func diffAnswer(res *core.Result, j job, ref answer) string {
	got, want := res.Pairs, ref.pairs
	if j.spec.Kind == core.IcebergSemi {
		got, want = nil, nil
		for _, o := range res.Objects {
			got = append(got, geom.Pair{RID: o.ID})
		}
		for _, id := range ref.ids {
			want = append(want, geom.Pair{RID: id})
		}
	}
	if slices.Equal(got, want) {
		return ""
	}
	missing, extra := 0, 0
	var first geom.Pair
	for i, k := 0, 0; i < len(got) || k < len(want); {
		switch {
		case k == len(want) || (i < len(got) && comparePairs(got[i], want[k]) < 0):
			if missing+extra == 0 {
				first = got[i]
			}
			extra++
			i++
		case i == len(got) || comparePairs(got[i], want[k]) > 0:
			if missing+extra == 0 {
				first = want[k]
			}
			missing++
			k++
		default:
			i++
			k++
		}
	}
	return fmt.Sprintf("%s: %d results, reference %d: %d missing, %d extra, first at %v",
		j.label, len(got), len(want), missing, extra, first)
}

// auditColumns checks that every join's per-level byte columns sum to
// its relation totals and the direction columns to the wire bytes.
func (p *phase) auditColumns() {
	for _, r := range p.all() {
		if r.err != nil {
			continue
		}
		p.auditSide("R", r.stats.R, r.stats.RLevels)
		p.auditSide("S", r.stats.S, r.stats.SLevels)
	}
}

func (p *phase) auditSide(side string, u netsim.Usage, levels []int) {
	if u.UpWireBytes+u.DownWireBytes != u.WireBytes {
		p.fail("%s: up %d + down %d != wire %d bytes", side, u.UpWireBytes, u.DownWireBytes, u.WireBytes)
	}
	if len(levels) == 0 {
		return
	}
	sum := 0
	for _, b := range levels {
		sum += b
	}
	if sum != u.WireBytes {
		p.fail("%s: level columns %v sum to %d, not the relation's %d bytes", side, levels, sum, u.WireBytes)
	}
}

// auditTenants checks that a round moved each tenant's meters by
// exactly the sum of its joins' Stats. On timed rounds it also sums the
// tenant meter deltas of the round, the device bytes of a repro.Server.
func (p *phase) auditTenants(w *workload, start, before, after []netsim.Usage, recs []joinRec, timed bool) {
	for c, cl := range w.clients {
		sum := 0
		for _, r := range recs {
			if r.client == c {
				sum += r.stats.TotalBytes()
			}
		}
		if got := after[c].WireBytes - start[c].WireBytes; got != sum {
			p.fail("tenant %s: meters moved %d bytes, its joins' Stats sum to %d", cl.tenant, got, sum)
		}
		if timed {
			p.tenantBytes += after[c].WireBytes - before[c].WireBytes
			p.tenantFrames += after[c].Queries - before[c].Queries
		}
	}
}

func (p *phase) fail(format string, args ...any) {
	if len(p.audit) < 20 {
		p.audit = append(p.audit, fmt.Sprintf(format, args...))
	}
}
