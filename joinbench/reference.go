package main

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
)

// answer is the expected outcome of one join: the sorted (RID, SID)
// pairs of an intersection or distance join, or the sorted R IDs of an
// iceberg semi-join.
type answer struct {
	pairs []geom.Pair
	ids   []uint32
}

// overlaps is the closed MBR-intersection predicate.
func overlaps(a, b geom.Rect) bool {
	return a.MinX <= b.MaxX && b.MinX <= a.MaxX && a.MinY <= b.MaxY && b.MinY <= a.MaxY
}

// within is the closed ε-distance predicate on the gaps between two MBRs:
// dx²+dy² ≤ ε², where dx and dy are zero on overlapping axes.
func within(a, b geom.Rect, eps float64) bool {
	dx := math.Max(0, math.Max(b.MinX-a.MaxX, a.MinX-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-a.MaxY, a.MinY-b.MaxY))
	return dx*dx+dy*dy <= eps*eps
}

// matches applies the predicate of spec's kind.
func matches(a, b geom.Rect, spec core.Spec) bool {
	if spec.Kind == core.Intersection {
		return overlaps(a, b)
	}
	return within(a, b, spec.Eps)
}

// reference computes the whole-space join of r and s with a
// grid-bucketed nested loop: every S object is filed under each grid
// cell its MBR touches, and every R object is tested against the S
// objects filed under the cells its ε-expanded MBR touches. It shares no
// join code with the program under test.
func reference(r, s []geom.Object, spec core.Spec) answer {
	eps := 0.0
	if spec.Kind != core.Intersection {
		eps = spec.Eps
	}
	g := newBuckets(s, eps)
	var pairs []geom.Pair
	seen := make([]int, len(s)) // last R position (+1) that visited each S object
	for ri, a := range r {
		// The reach is widened by a hair so that float rounding of the
		// expanded rectangle never hides a candidate the exact predicate
		// below accepts.
		reach := eps + 1e-9*(1+eps)
		q := geom.Rect{MinX: a.MBR.MinX - reach, MinY: a.MBR.MinY - reach, MaxX: a.MBR.MaxX + reach, MaxY: a.MBR.MaxY + reach}
		x0, y0, x1, y1 := g.span(q)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				for _, si := range g.cells[cy*g.nx+cx] {
					if seen[si] == ri+1 {
						continue
					}
					seen[si] = ri + 1
					if matches(a.MBR, s[si].MBR, spec) {
						pairs = append(pairs, geom.Pair{RID: a.ID, SID: s[si].ID})
					}
				}
			}
		}
	}
	return finish(pairs, spec)
}

// finish sorts the qualifying pairs and, for an iceberg semi-join,
// reduces them to the R IDs with at least MinMatches partners.
func finish(pairs []geom.Pair, spec core.Spec) answer {
	slices.SortFunc(pairs, comparePairs)
	pairs = slices.Compact(pairs)
	if spec.Kind != core.IcebergSemi {
		return answer{pairs: pairs}
	}
	var ids []uint32
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].RID == pairs[i].RID {
			j++
		}
		if j-i >= spec.MinMatches {
			ids = append(ids, pairs[i].RID)
		}
		i = j
	}
	return answer{ids: ids}
}

func comparePairs(a, b geom.Pair) int {
	if c := cmp.Compare(a.RID, b.RID); c != 0 {
		return c
	}
	return cmp.Compare(a.SID, b.SID)
}

// buckets is a uniform grid over the S objects' bounds.
type buckets struct {
	bounds geom.Rect
	side   float64
	nx, ny int
	cells  [][]int
}

// newBuckets files every object under each cell its MBR touches. The cell
// side is at least ε and near the mean spacing of the objects, so a probe
// touches few cells whatever the density.
func newBuckets(objs []geom.Object, eps float64) *buckets {
	g := &buckets{nx: 1, ny: 1, side: 1}
	if len(objs) > 0 {
		g.bounds = objs[0].MBR
		for _, o := range objs[1:] {
			g.bounds = g.bounds.Union(o.MBR)
		}
		w, h := g.bounds.Width(), g.bounds.Height()
		g.side = math.Max(eps, math.Sqrt(math.Max(w*h, 1)/float64(len(objs)))*2)
		g.nx = min(int(w/g.side)+1, 4096)
		g.ny = min(int(h/g.side)+1, 4096)
	}
	g.cells = make([][]int, g.nx*g.ny)
	for i, o := range objs {
		x0, y0, x1, y1 := g.span(o.MBR)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				g.cells[cy*g.nx+cx] = append(g.cells[cy*g.nx+cx], i)
			}
		}
	}
	return g
}

// span returns the inclusive cell range a rectangle touches, clamped to
// the grid, so rectangles beyond the bounds reach the border cells.
func (g *buckets) span(r geom.Rect) (x0, y0, x1, y1 int) {
	cell := func(v, lo float64, n int) int {
		return min(max(int(math.Floor((v-lo)/g.side)), 0), n-1)
	}
	return cell(r.MinX, g.bounds.MinX, g.nx), cell(r.MinY, g.bounds.MinY, g.ny),
		cell(r.MaxX, g.bounds.MinX, g.nx), cell(r.MaxY, g.bounds.MinY, g.ny)
}
