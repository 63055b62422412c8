package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// The traced run records three span levels in memory: the join (the Run
// call, recorded by the load loop), the probe (every call on Env.R/Env.S,
// through tracedProbe) and the leaf round trip below the meter (through
// tracedTransport). After each round the spans are folded into per-layer
// totals and dropped, so memory stays bounded however long the run.
// Times are offsets from the recorder's epoch on the monotonic clock.

// tracing holds the traced run's spans: one recorder per client for
// probes, and leaf round trips in leaves (nil on a repro.Server).
type tracing struct {
	recorders []*recorder
	leaves    *recorder
}

// drop forgets every span recorded so far.
func (tr *tracing) drop() {
	for _, r := range tr.recorders {
		r.take()
	}
	if tr.leaves != nil {
		tr.leaves.take()
	}
}

// interval is a closed-open span of time, in ns from the epoch.
type interval struct{ start, end int64 }

// probeSpan is one call on Env.R or Env.S.
type probeSpan struct {
	interval
	probes  int32 // requests the call carried: 1, or the GoBatch size
	objects int32 // objects the call returned
}

// leafSpan is one frame exchange below the meter.
type leafSpan struct {
	interval
	req, resp int32 // frame payload bytes
	subs      int32 // requests the frame carried: 1, or the MsgBatch size
}

// recorder collects the spans of one client (probes) or one fleet
// (leaf round trips).
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	probes []probeSpan
	leaves []leafSpan
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) probe(start int64, probes, objects int) {
	sp := probeSpan{interval{start, r.now()}, int32(probes), int32(objects)}
	r.mu.Lock()
	r.probes = append(r.probes, sp)
	r.mu.Unlock()
}

func (r *recorder) leaf(sp leafSpan) {
	r.mu.Lock()
	r.leaves = append(r.leaves, sp)
	r.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() ([]probeSpan, []leafSpan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, l := r.probes, r.leaves
	r.probes, r.leaves = nil, nil
	return p, l
}

// objectCount reads the cardinality of an OBJECTS reply frame without
// decoding it; other replies carry no objects.
func objectCount(frame []byte) int {
	if wire.Type(frame) != wire.MsgObjects || len(frame) < 5 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(frame[1:5]))
}

// subRequests is the number of protocol requests a request frame carries.
func subRequests(frame []byte) int {
	if wire.Type(frame) != wire.MsgBatch || len(frame) < 5 {
		return 1
	}
	return int(binary.LittleEndian.Uint32(frame[1:5]))
}

// tracedTransport times every round trip of one leaf server's transport,
// below the meter, and keeps the frame sizes for the Eq. 1 audit.
type tracedTransport struct {
	rt  netsim.RoundTripper
	rec *recorder
}

func (t *tracedTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	sp := leafSpan{req: int32(len(req)), subs: int32(subRequests(req))}
	sp.start = t.rec.now()
	resp, err := t.rt.RoundTrip(ctx, req)
	sp.end = t.rec.now()
	if err == nil {
		sp.resp = int32(len(resp))
		t.rec.leaf(sp)
	}
	return resp, err
}

func (t *tracedTransport) Close() error { return t.rt.Close() }

// tracedProbe records a probe span around every call into one relation
// endpoint and otherwise forwards verbatim.
type tracedProbe struct {
	p   core.Probe
	rec *recorder
}

// The optional methods core and shard assert on probes. The traced
// wrapper must expose exactly the set its endpoint has, or Auto would
// plan differently than it does untraced.
type (
	linkStatser interface{ LinkStats() netsim.LinkSnapshot }
	shardInfoer interface {
		ShardInfos(context.Context) ([]wire.Info, error)
	}
	numSharder   interface{ NumShards() int }
	levelUsager  interface{ LevelUsages() []netsim.Usage }
	tracedRemote struct{ *tracedProbe }
	tracedRouter struct{ *tracedProbe }
)

func (t tracedRemote) LinkStats() netsim.LinkSnapshot { return t.p.(linkStatser).LinkStats() }
func (t tracedRouter) LinkStats() netsim.LinkSnapshot { return t.p.(linkStatser).LinkStats() }
func (t tracedRouter) ShardInfos(ctx context.Context) ([]wire.Info, error) {
	return t.p.(shardInfoer).ShardInfos(ctx)
}
func (t tracedRouter) NumShards() int              { return t.p.(numSharder).NumShards() }
func (t tracedRouter) LevelUsages() []netsim.Usage { return t.p.(levelUsager).LevelUsages() }

// traceProbe wraps p in the tracing probe whose method set matches p's
// optional methods: none (a tenant's view of a shared fleet), LinkStats
// (a bare remote), or all four (a shard router).
func traceProbe(p core.Probe, rec *recorder) (core.Probe, error) {
	t := &tracedProbe{p: p, rec: rec}
	_, ls := p.(linkStatser)
	_, si := p.(shardInfoer)
	_, ns := p.(numSharder)
	_, lu := p.(levelUsager)
	switch {
	case !ls && !si && !ns && !lu:
		return t, nil
	case ls && !si && !ns && !lu:
		return tracedRemote{t}, nil
	case ls && si && ns && lu:
		return tracedRouter{t}, nil
	}
	return nil, fmt.Errorf("trace: endpoint %s has an optional-method set the tracer cannot mirror", p.Name())
}

func (t *tracedProbe) Name() string { return t.p.Name() }

func (t *tracedProbe) Info(ctx context.Context) (wire.Info, error) {
	s := t.rec.now()
	v, err := t.p.Info(ctx)
	t.rec.probe(s, 1, 0)
	return v, err
}

func (t *tracedProbe) Count(ctx context.Context, w geom.Rect) (int, error) {
	s := t.rec.now()
	v, err := t.p.Count(ctx, w)
	t.rec.probe(s, 1, 0)
	return v, err
}

func (t *tracedProbe) Window(ctx context.Context, w geom.Rect) ([]geom.Object, error) {
	s := t.rec.now()
	v, err := t.p.Window(ctx, w)
	t.rec.probe(s, 1, len(v))
	return v, err
}

func (t *tracedProbe) AvgArea(ctx context.Context, w geom.Rect) (float64, error) {
	s := t.rec.now()
	v, err := t.p.AvgArea(ctx, w)
	t.rec.probe(s, 1, 0)
	return v, err
}

func (t *tracedProbe) Range(ctx context.Context, p geom.Point, eps float64) ([]geom.Object, error) {
	s := t.rec.now()
	v, err := t.p.Range(ctx, p, eps)
	t.rec.probe(s, 1, len(v))
	return v, err
}

func (t *tracedProbe) RangeCount(ctx context.Context, p geom.Point, eps float64) (int, error) {
	s := t.rec.now()
	v, err := t.p.RangeCount(ctx, p, eps)
	t.rec.probe(s, 1, 0)
	return v, err
}

func (t *tracedProbe) BucketRange(ctx context.Context, pts []geom.Point, eps float64) ([][]geom.Object, error) {
	s := t.rec.now()
	v, err := t.p.BucketRange(ctx, pts, eps)
	n := 0
	for _, g := range v {
		n += len(g)
	}
	t.rec.probe(s, 1, n)
	return v, err
}

func (t *tracedProbe) BucketRangeCount(ctx context.Context, pts []geom.Point, eps float64) ([]int64, error) {
	s := t.rec.now()
	v, err := t.p.BucketRangeCount(ctx, pts, eps)
	t.rec.probe(s, 1, 0)
	return v, err
}

func (t *tracedProbe) LevelMBRs(ctx context.Context, level int) ([]geom.Rect, error) {
	s := t.rec.now()
	v, err := t.p.LevelMBRs(ctx, level)
	t.rec.probe(s, 1, 0)
	return v, err
}

func (t *tracedProbe) MBRMatch(ctx context.Context, rects []geom.Rect, eps float64) ([]geom.Object, error) {
	s := t.rec.now()
	v, err := t.p.MBRMatch(ctx, rects, eps)
	t.rec.probe(s, 1, len(v))
	return v, err
}

func (t *tracedProbe) UploadJoin(ctx context.Context, objs []geom.Object, eps float64) ([]geom.Pair, error) {
	s := t.rec.now()
	v, err := t.p.UploadJoin(ctx, objs, eps)
	t.rec.probe(s, 1, 0)
	return v, err
}

// GoBatch hands the caller detached calls, each completed by a goroutine
// once the underlying call completes, so the span can end when the last
// of them does. Ownership of every reply frame passes through unchanged.
func (t *tracedProbe) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	s := t.rec.now()
	inner := t.p.GoBatch(ctx, reqs)
	out := make([]*client.Call, len(inner))
	var left atomic.Int32
	var objects atomic.Int64
	left.Store(int32(len(inner)))
	for i, in := range inner {
		o := client.NewDetachedCall(t.p.Name())
		out[i] = o
		go func(in, o *client.Call) {
			frame, err := in.Frame()
			if err == nil {
				objects.Add(int64(objectCount(frame)))
			}
			if left.Add(-1) == 0 {
				t.rec.probe(s, len(inner), int(objects.Load()))
			}
			o.CompleteFrame(frame, err)
		}(in, o)
	}
	return out
}

func (t *tracedProbe) Flush()                { t.p.Flush() }
func (t *tracedProbe) Usage() netsim.Usage   { return t.p.Usage() }
func (t *tracedProbe) PricePerByte() float64 { return t.p.PricePerByte() }
func (t *tracedProbe) Retries() int64        { return t.p.Retries() }
func (t *tracedProbe) Close() error          { return t.p.Close() }
