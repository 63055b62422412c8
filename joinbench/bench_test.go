package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// size is the result cardinality, for reports.
func (a answer) size() int { return len(a.pairs) + len(a.ids) }

// nestedLoop is the plain |R|·|S| join the reference is checked against.
func nestedLoop(r, s []geom.Object, spec core.Spec) answer {
	var pairs []geom.Pair
	for _, a := range r {
		for _, b := range s {
			ok := !(a.MBR.MaxX < b.MBR.MinX || b.MBR.MaxX < a.MBR.MinX || a.MBR.MaxY < b.MBR.MinY || b.MBR.MaxY < a.MBR.MinY)
			if spec.Kind != core.Intersection {
				dx, dy := 0.0, 0.0
				if b.MBR.MinX > a.MBR.MaxX {
					dx = b.MBR.MinX - a.MBR.MaxX
				} else if a.MBR.MinX > b.MBR.MaxX {
					dx = a.MBR.MinX - b.MBR.MaxX
				}
				if b.MBR.MinY > a.MBR.MaxY {
					dy = b.MBR.MinY - a.MBR.MaxY
				} else if a.MBR.MinY > b.MBR.MaxY {
					dy = a.MBR.MinY - b.MBR.MaxY
				}
				ok = dx*dx+dy*dy <= spec.Eps*spec.Eps
			}
			if ok {
				pairs = append(pairs, geom.Pair{RID: a.ID, SID: b.ID})
			}
		}
	}
	return finish(pairs, spec)
}

func TestReferenceMatchesNestedLoop(t *testing.T) {
	w := dataset.World
	// Points on the world's edges and corners, where clamped Gaussian
	// clusters pile up, and a set holding every point twice.
	edges := []geom.Object{}
	for i, p := range []geom.Point{{X: 0, Y: 0}, {X: w.MaxX, Y: 0}, {X: w.MaxX, Y: w.MaxY}, {X: 0, Y: 5000}, {X: 5000, Y: w.MaxY}, {X: 40, Y: 0}} {
		edges = append(edges, geom.PointObject(uint32(i), p))
	}
	dup := dataset.GaussianClusters(150, 2, 300, w, 9)
	for i := range 150 {
		dup = append(dup, geom.Object{ID: uint32(150 + i), MBR: dup[i].MBR})
	}
	sets := map[string][2][]geom.Object{
		"clusters": {dataset.GaussianClusters(300, 4, 250, w, 1), dataset.GaussianClusters(300, 4, 250, w, 2)},
		"skewed":   {dataset.GaussianClusters(300, 1, 60, w, 3), dataset.GaussianClusters(300, 1, 60, w, 4)},
		"rects":    {dataset.ClusteredRects(300, 8, 400, 300, w, 5), dataset.ClusteredRects(300, 8, 400, 300, w, 6)},
		"railway":  {dataset.Railway(dataset.RailwayConfig{Segments: 400, Stations: 10, Degree: 2, Bounds: w, Jitter: 25}, 7), dataset.Uniform(300, w, 8)},
		"edges":    {edges, dataset.GaussianClusters(200, 3, 2000, w, 10)},
		"dup":      {dup, dup},
	}
	specs := []core.Spec{
		{Kind: core.Intersection},
		{Kind: core.Distance, Eps: 0},
		{Kind: core.Distance, Eps: 75},
		{Kind: core.Distance, Eps: 900},
		{Kind: core.IcebergSemi, Eps: 150, MinMatches: 3},
	}
	for name, rs := range sets {
		for _, spec := range specs {
			got, want := reference(rs[0], rs[1], spec), nestedLoop(rs[0], rs[1], spec)
			if !slices.Equal(got.pairs, want.pairs) || !slices.Equal(got.ids, want.ids) {
				t.Errorf("%s %v ε=%v: reference gives %d results, nested loop %d", name, spec.Kind, spec.Eps, got.size(), want.size())
			}
		}
	}
	// The sets must give the comparison something to find.
	if n := nestedLoop(sets["clusters"][0], sets["clusters"][1], specs[2]).size(); n == 0 {
		t.Fatal("no pairs in the clustered distance join")
	}
}

func TestIntervals(t *testing.T) {
	a := []interval{{0, 10}, {5, 20}, {30, 40}}
	if got := covered(a); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if got := outside(a, []interval{{8, 35}}); got != 13 {
		t.Fatalf("outside = %d, want 13", got)
	}
}

// result parses the JSON object on the last line of the output.
func result(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not a JSON result: %v\n%s", err, out)
	}
	return v
}

func runBench(t *testing.T, tamper func(*core.Result), args ...string) (int, map[string]any) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"--seconds", "0", "--seed", "3"}, args...), &stdout, &stderr, tamper)
	t.Log(stderr.String())
	return code, result(t, stdout.String())
}

// TestRunsClean runs each workload briefly, untraced and traced; every
// answer, audit and transparency check must hold.
func TestRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Untraced runs need a hundred joins for their p90.
	for trace, seconds := range map[string]string{"0": "8", "1": "2"} {
		for _, w := range workloadNames {
			code, res := runBench(t, nil, "--workload", w, "--trace", trace, "--seconds", seconds)
			if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 {
				t.Errorf("%s trace %s: exit %d, result %v", w, trace, code, res)
			}
			metrics := res["metrics"].(map[string]any)
			if want := 8; trace == "0" && len(metrics) != want {
				t.Errorf("%s: %d end-to-end metrics, want %d", w, len(metrics), want)
			}
			if want := 16; trace == "1" && len(metrics) != want {
				t.Errorf("%s: %d per-layer metrics, want %d", w, len(metrics), want)
			}
		}
	}
}

// TestRoundsHoldFixedMix checks that every round of the two-tenant
// workload runs the same joins of each tenant, however fast they are, so
// per-join figures divide by a fixed job set.
func TestRoundsHoldFixedMix(t *testing.T) {
	w := tenantsFleet(3)
	p, err := runPhase(w, time.Now(), phaseConfig{seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	perRound := map[[2]int]int{}
	for _, r := range p.all() {
		perRound[[2]int{r.round, r.client}]++
	}
	for k, n := range perRound {
		if cl := w.clients[k[1]]; n != cl.passes*len(cl.jobs) {
			t.Errorf("round %d: tenant %s ran %d joins, want %d", k[0], cl.tenant, n, cl.passes*len(cl.jobs))
		}
	}
}

// TestPlantedWrongAnswerFails drops one pair (or one iceberg object) from
// every answer: each such join must count as failed, the result must
// read incorrect, and the command must exit non-zero.
func TestPlantedWrongAnswerFails(t *testing.T) {
	drop := func(res *core.Result) {
		if n := len(res.Pairs); n > 0 {
			res.Pairs = res.Pairs[:n-1]
		} else if n := len(res.Objects); n > 0 {
			res.Objects = res.Objects[:n-1]
		}
	}
	code, res := runBench(t, drop, "--workload", "paper-device", "--seconds", "2")
	if code == 0 {
		t.Error("exit status 0 with planted wrong answers")
	}
	if res["correct"] != false || res["failed"].(float64) == 0 {
		t.Errorf("planted wrong answers not reported: %v", res)
	}
}
