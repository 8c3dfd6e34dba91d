package shard

import (
	"math"
	"sort"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// linePart hand-builds a shard whose sub-mesh is a chain of tets over the
// given x coordinates (local id = index), with the given ownership and
// global ids — full control over what the inner engine ranks where.
func linePart(t *testing.T, xs []float64, owned []bool, toGlobal []int32) *Part {
	t.Helper()
	b := mesh.NewBuilder(len(xs), len(xs))
	for _, x := range xs {
		b.AddVertex(geom.V(x, 0, 0))
	}
	for i := 0; i+3 < len(xs); i++ {
		b.AddTet(int32(i), int32(i+1), int32(i+2), int32(i+3))
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := &Part{Mesh: m, ToGlobal: toGlobal, Owned: owned}
	for _, own := range owned {
		if own {
			p.NumOwned++
		}
	}
	return p
}

type cand struct {
	d2  float64
	gid int32
}

// ownedBruteForce ranks the shard's owned vertices around probe by
// (squared distance, global id) and returns the best k.
func ownedBruteForce(p *Part, probe geom.Vec3, k int) []cand {
	var all []cand
	for l, own := range p.Owned {
		if own {
			all = append(all, cand{p.Mesh.Position(int32(l)).Dist2(probe), p.ToGlobal[l]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d2 != all[j].d2 {
			return all[i].d2 < all[j].d2
		}
		return all[i].gid < all[j].gid
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func seq(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

func ident(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func ownedFrom(n, first int) []bool {
	owned := make([]bool, n)
	for i := first; i < n; i++ {
		owned[i] = true
	}
	return owned
}

// TestExecKNNCompleteness drives Exec.KNN directly through every exit of
// the completeness rule and both fallbacks. The probe sits left of a line
// of vertices, so local id order is distance order unless a case says
// otherwise. Whatever the exit, every owned vertex that ranks in the
// owned top-k and is not beyond the shipped bound must come back.
func TestExecKNNCompleteness(t *testing.T) {
	scan := func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) }
	unit := func(i int) float64 { return float64(i) }
	probe := geom.V(-0.5, 0, 0)
	inf := math.Inf(1)

	cases := []struct {
		name   string
		part   *Part
		exec   func(p *Part) *Exec // nil: NewExec over a linear scan
		k      int
		full   bool
		bound2 float64
		rounds int
	}{
		{
			name: "sub-mesh exhausted",
			part: linePart(t, seq(4, unit), ownedFrom(4, 2), ident(4)),
			k:    5, bound2: inf,
		},
		{
			name: "owned population exhausted",
			part: linePart(t, seq(12, unit), append([]bool{true, true}, make([]bool, 10)...), ident(12)),
			k:    4, bound2: inf,
		},
		{
			// Ghosts fill the first round, but its horizon (0.5+2)^2 is
			// already beyond the shipped bound: nothing here can matter.
			name: "horizon beyond the shipped bound",
			part: linePart(t, seq(40, unit), ownedFrom(40, 6), ident(40)),
			k:    2, full: true, bound2: 1,
		},
		{
			// The first round is all ghosts and its horizon equals the
			// shipped bound — not strictly beyond it. Stopping there would
			// lose owned local 3, which ties at the bound with global id 0.
			name: "horizon at the shipped bound",
			part: linePart(t, append([]float64{0, 1, 2, 2}, seq(36, func(i int) float64 { return float64(i + 4) })...),
				ownedFrom(40, 3), append([]int32{3, 1, 2, 0}, ident(40)[4:]...)),
			k: 2, full: true, bound2: 2.5 * 2.5, rounds: 1,
		},
		{
			name: "want owned strictly inside the horizon",
			part: linePart(t, seq(10, unit), ownedFrom(10, 0), ident(10)),
			k:    2, bound2: inf,
		},
		{
			// Three owned vertices at the same distance; the first round
			// returns local 0 and 1 (global 9 and 8) with the horizon tied
			// at their distance, and the unreturned local 2 is global 1.
			name: "tie at the horizon with a smaller global id",
			part: linePart(t, []float64{1, 1, 1, 4, 5, 6}, ownedFrom(6, 0), []int32{9, 8, 1, 2, 3, 4}),
			k:    1, bound2: inf, rounds: 1,
		},
		{
			name: "ghost-crowded",
			part: linePart(t, seq(40, unit), ownedFrom(40, 6), ident(40)),
			k:    2, bound2: inf, rounds: 1,
		},
		{
			// A successor's engine does not exist until its rebuild task
			// runs: the target reports mid-task and any engine use would
			// dereference nil.
			name: "fallback mid-task",
			part: linePart(t, seq(12, unit), ownedFrom(12, 3), ident(12)),
			exec: func(p *Part) *Exec { return NewExec(p, scan).successor(p, scan) },
			k:    3, bound2: inf,
		},
		{
			// The kd-tree answers from its build-time snapshot; after the
			// publish reverses the line, its ranking is the wrong way round.
			name: "fallback stale",
			part: linePart(t, seq(12, unit), ownedFrom(12, 3), ident(12)),
			exec: func(p *Part) *Exec {
				x := NewExec(p, func(m *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(m, 0) })
				p.Mesh.Deform(func(pos []geom.Vec3) {
					for i := range pos {
						pos[i].X = float64(len(pos) - 1 - i)
					}
				})
				return x
			},
			k: 3, bound2: inf,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := NewExec(tc.part, scan)
			if tc.exec != nil {
				x = tc.exec(tc.part)
			}
			var cur ExecCursor
			var kb query.KBest
			kb.Reset(tc.k)
			rounds := x.KNN(&cur, probe, tc.k, tc.full, tc.bound2, &kb)
			if rounds != tc.rounds {
				t.Errorf("rounds = %d, want %d", rounds, tc.rounds)
			}
			gids, d2s := kb.AppendSortedDists(nil, nil)

			want := ownedBruteForce(tc.part, probe, tc.k)
			if tc.full {
				n := 0
				for n < len(want) && want[n].d2 <= tc.bound2 {
					n++
				}
				want = want[:n]
			}
			if len(gids) < len(want) {
				t.Fatalf("offered %v, want at least %v", gids, want)
			}
			for i, w := range want {
				if gids[i] != w.gid || d2s[i] != w.d2 {
					t.Fatalf("candidate %d = (%v, %d), want (%v, %d)", i, d2s[i], gids[i], w.d2, w.gid)
				}
			}

			// The range side of the same executor: owned vertices in the
			// box, by global id, whichever path answered.
			q := geom.Box(geom.V(2.5, -1, -1), geom.V(8.5, 1, 1))
			var wantIDs []int32
			for l, own := range tc.part.Owned {
				if own && q.Contains(tc.part.Mesh.Position(int32(l))) {
					wantIDs = append(wantIDs, tc.part.ToGlobal[l])
				}
			}
			if d := query.Diff(x.Range(&cur, q, nil), wantIDs); d != "" {
				t.Fatalf("range: %s", d)
			}
		})
	}
}
