package main

import (
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// The benchmark's inputs. Every dataset is generated from the workload
// seed; sizes, skews and thresholds are fixed here and listed in the
// README.
const (
	sigma = 250 // Gaussian cluster spread: 2.5% of the 10,000-unit world side
	eps   = 75  // distance threshold: 0.75% of the world side, as in the paper's figures
)

// job is one join of a workload: an algorithm and a predicate run on one
// fleet of the current slot.
type job struct {
	label string
	fleet int
	alg   core.Algorithm
	spec  core.Spec
}

// caller is one closed-loop client: in every round it runs its jobs in
// order, passes times over (once when passes is 0). On a repro.Server it
// acts as tenant. The passes are fixed, so a round's mix of joins, and
// the denominator of every per-join figure, never depends on timing.
type caller struct {
	tenant repro.TenantID
	// priority marks the client whose join tail is priority_join_ms_p90
	// and whose joins are timed alone for repro.contention_ms_per_join.
	priority bool
	passes   int
	jobs     []job
}

// workload is one benchmark input. Round i of its closed loop runs every
// client's jobs on slot i: a set of fleets over datasets freshly drawn
// for that round, so a run's figures average over many dataset draws
// and move little from seed to seed.
type workload struct {
	name string
	// slot generates slot i's fleets from the run's seed.
	slot func(i int) []repro.SessionConfig
	// pool, when positive, keeps that many slots set up for the whole
	// run, round i running on slot i mod pool, as a long-lived server
	// would be; zero sets up a fresh slot for every round.
	pool    int
	tenants map[repro.TenantID]repro.TenantConfig // non-nil: each slot is one repro.Server over its only fleet
	clients []caller
	// tree marks fleets behind the aggregation tree, whose device links
	// are the root level of Stats.RLevels/SLevels.
	tree bool
	// deterministic marks workloads whose framing, and so whose exact
	// wire bytes, do not depend on timing.
	deterministic bool
}

var workloadNames = []string{"paper-device", "fleet-scatter", "tenants-fleet"}

// buildWorkload returns the named workload, its datasets drawn from seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "paper-device":
		return paperDevice(seed), nil
	case "fleet-scatter":
		return fleetScatter(seed), nil
	case "tenants-fleet":
		return tenantsFleet(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// answers computes the reference answer of every job on one slot's
// fleets.
func answers(w *workload, fleets []repro.SessionConfig) [][]answer {
	type key struct {
		fleet int
		spec  core.Spec
	}
	known := map[key]answer{}
	out := make([][]answer, len(w.clients))
	for c, cl := range w.clients {
		for _, j := range cl.jobs {
			k := key{j.fleet, j.spec}
			if _, ok := known[k]; !ok {
				known[k] = reference(fleets[j.fleet].R, fleets[j.fleet].S, j.spec)
			}
			out[c] = append(out[c], known[k])
		}
	}
	return out
}

// dataSeed numbers the datasets of one run: dataset d of slot s of the
// run seeded seed.
func dataSeed(seed int64, s, d int) int64 { return seed*1000000 + int64(s)*100 + int64(d) }

func clusters(n, k int, seed int64) []geom.Object {
	return onWireGrid(dataset.GaussianClusters(n, k, sigma, dataset.World, seed))
}

func railway(seed int64) []geom.Object {
	return onWireGrid(dataset.Railway(dataset.RailwayConfig{Segments: 3000, Stations: 40, Degree: 3, Bounds: dataset.World, Jitter: 25}, seed))
}

// onWireGrid rounds every coordinate to float32, the precision of the
// wire protocol. A pair whose gap lies within float32 rounding of ε
// otherwise matches on the device, which joins the narrowed copies it
// downloaded, and not in the exact join (see README, "Known faults").
func onWireGrid(objs []geom.Object) []geom.Object {
	f := func(v float64) float64 { return float64(float32(v)) }
	for i, o := range objs {
		objs[i].MBR = geom.Rect{MinX: f(o.MBR.MinX), MinY: f(o.MBR.MinY), MaxX: f(o.MBR.MaxX), MaxY: f(o.MBR.MaxY)}
	}
	return objs
}

func distance(e float64) core.Spec { return core.Spec{Kind: core.Distance, Eps: e} }

var (
	allAlgorithms = []core.Algorithm{core.Naive{}, core.Grid{}, core.MobiJoin{}, core.UpJoin{}, core.SrJoin{}, core.SemiJoin{}, core.Auto{}}
	// SemiJoin rejects iceberg joins by design.
	icebergAlgorithms = []core.Algorithm{core.Naive{}, core.Grid{}, core.MobiJoin{}, core.UpJoin{}, core.SrJoin{}, core.Auto{}}
)

// addJobs appends one job per algorithm for spec on fleet f.
func addJobs(jobs []job, f int, algs []core.Algorithm, spec core.Spec, tag string) []job {
	for _, a := range algs {
		jobs = append(jobs, job{label: tag + "/" + a.Name(), fleet: f, alg: a, spec: spec})
	}
	return jobs
}

// paperDevice is the paper's §5 setting on its sequential device. A slot
// holds cluster pairs at k = 1, 8 and 128, each served at buffers 800 and
// 100, the railway substitute with clusters under bucket submission, and
// a cluster pair for an iceberg semi-join.
func paperDevice(seed int64) *workload {
	w := &workload{name: "paper-device", deterministic: true}
	var jobs []job
	for i, k := range []int{1, 8, 128} {
		for b, buf := range []int{800, 100} {
			jobs = addJobs(jobs, 2*i+b, allAlgorithms, distance(eps), fmt.Sprintf("k%d-b%d", k, buf))
		}
	}
	jobs = addJobs(jobs, 6, allAlgorithms, distance(eps), "railway-bucket")
	jobs = addJobs(jobs, 7, icebergAlgorithms, core.Spec{Kind: core.IcebergSemi, Eps: eps, MinMatches: 3}, "iceberg-m3")
	w.clients = []caller{{priority: true, jobs: jobs}}
	w.slot = func(s int) []repro.SessionConfig {
		var fleets []repro.SessionConfig
		for i, k := range []int{1, 8, 128} {
			r, q := clusters(1000, k, dataSeed(seed, s, 2*i)), clusters(1000, k, dataSeed(seed, s, 2*i+1))
			for _, buf := range []int{800, 100} {
				fleets = append(fleets, repro.SessionConfig{R: r, S: q, Buffer: buf, PublishIndexes: true, Seed: seed})
			}
		}
		return append(fleets,
			repro.SessionConfig{R: railway(dataSeed(seed, s, 6)), S: clusters(1000, 16, dataSeed(seed, s, 7)), Buffer: 800, Bucket: true, PublishIndexes: true, Seed: seed},
			repro.SessionConfig{R: clusters(1000, 8, dataSeed(seed, s, 8)), S: clusters(1000, 8, dataSeed(seed, s, 9)), Buffer: 800, Seed: seed})
	}
	return w
}

// fleetScatter runs one sequential device over 64 shards per relation
// under the fanout-4 aggregation tree. A slot holds one cluster pair, at
// k = 4, 16 and 64 in turn.
func fleetScatter(seed int64) *workload {
	w := &workload{name: "fleet-scatter", tree: true, deterministic: true}
	w.clients = []caller{{priority: true, jobs: addJobs(nil, 0, []core.Algorithm{core.Naive{}, core.Grid{}, core.SrJoin{}, core.UpJoin{}, core.MobiJoin{}, core.Auto{}}, distance(eps), "clusters")}}
	w.slot = func(s int) []repro.SessionConfig {
		k := []int{4, 16, 64}[s%3]
		return []repro.SessionConfig{{
			R: clusters(1000, k, dataSeed(seed, s, 0)), S: clusters(1000, k, dataSeed(seed, s, 1)),
			Buffer: 800, Shards: 64, TreeFanout: 4, Seed: seed,
		}}
	}
	return w
}

// tenantsFleet shares one long-lived repro.Server per slot, at
// spatialjoind's defaults (parallelism 4, batch 16, no RTT), between a
// high-priority tenant issuing small-ε interactive joins and a
// low-priority tenant issuing heavy joins.
func tenantsFleet(seed int64) *workload {
	w := &workload{name: "tenants-fleet", pool: 8}
	w.tenants = map[repro.TenantID]repro.TenantConfig{
		"interactive": {Priority: 1},
		"bulk":        {Priority: 0},
	}
	w.clients = []caller{
		// A round is 8 interactive passes against 4 bulk passes: on the
		// reference host the interactive passes end a little before the
		// bulk ones, so nearly every interactive join meets the load.
		{tenant: "interactive", priority: true, passes: 8, jobs: addJobs(nil, 0, []core.Algorithm{core.SrJoin{}, core.Grid{}, core.Auto{}}, distance(10), "eps10")},
		{tenant: "bulk", passes: 4, jobs: addJobs(nil, 0, []core.Algorithm{core.Naive{}, core.UpJoin{}, core.MobiJoin{}}, distance(eps), "eps75")},
	}
	w.slot = func(s int) []repro.SessionConfig {
		return []repro.SessionConfig{{
			R: clusters(8000, 64, dataSeed(seed, s, 0)), S: clusters(8000, 64, dataSeed(seed, s, 1)),
			Buffer: 800, Parallelism: 4, BatchSize: 16, Seed: seed,
		}}
	}
	return w
}
