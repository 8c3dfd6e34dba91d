package shard

import (
	"math"
	"sort"
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/workload"
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
// the completeness rule and both fallbacks, over two shard engines: the
// linear scan, which ranks every vertex, and OCTOPUS, whose cursor Exec
// restricts to the owned vertices within the shipped bound. The probe sits
// left of a line of vertices, so local id order is distance order unless a
// case says otherwise. Whatever the exit, every owned vertex that ranks in
// the owned top-k and is not beyond the shipped bound must come back, and
// the restricted engine must rank nothing else.
func TestExecKNNCompleteness(t *testing.T) {
	type factory = func(*mesh.Mesh) query.ParallelKNNEngine
	scan := func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) }
	unit := func(i int) float64 { return float64(i) }
	probe := geom.V(-0.5, 0, 0)
	inf := math.Inf(1)

	type execCase struct {
		name string
		part *Part
		exec func(p *Part, f factory) *Exec // nil: NewExec over the engine
		k    int
		// heap is what the global heap holds before this shard; full and
		// bound2 describe it (a heap that is not really full may still be
		// shipped as full, to pin the bound's use).
		heap   []cand
		full   bool
		bound2 float64
		// rounds is the linear scan's widening count, restricted the
		// restricting engine's.
		rounds, restricted int
	}
	// cases builds fresh parts on every call: a case may deform its mesh.
	cases := func() []execCase {
		return []execCase{
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
				// Restricted, no owned vertex is within the bound at all.
				name: "horizon beyond the shipped bound",
				part: linePart(t, seq(40, unit), ownedFrom(40, 6), ident(40)),
				k:    2, full: true, bound2: 1,
			},
			{
				// The first round is all ghosts and its horizon equals the
				// shipped bound — not strictly beyond it. Stopping there would
				// lose owned local 3, which ties at the bound with global id 0.
				// Restricted, local 3 is the one owned vertex within the
				// bound and the first round returns short.
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
				k:    1, bound2: inf, rounds: 1, restricted: 1,
			},
			{
				// The global k-th sits exactly at the bound with global id
				// 50, and the shard owns two vertices exactly there too, as
				// global 7 and 2. The ceiling is not strict, so both are
				// ranked; they tie at the horizon, and the widened round
				// proves there is no third. Global 2 must displace 50.
				name: "owned tie at the bound beats the heap's k-th",
				part: linePart(t, append([]float64{0, 1, 2, 2}, seq(8, func(i int) float64 { return float64(i + 3) })...),
					ownedFrom(12, 2), append([]int32{20, 21, 7, 2}, ident(12)[4:]...)),
				k: 1, heap: []cand{{2.5 * 2.5, 50}}, full: true, bound2: 2.5 * 2.5, rounds: 1, restricted: 1,
			},
			{
				// Every owned vertex lies beyond the bound: the restricted
				// engine returns nothing in its first round, and the heap
				// keeps exactly what it held.
				name: "every owned vertex beyond the bound",
				part: linePart(t, seq(12, unit), ownedFrom(12, 5), ident(12)),
				k:    2, heap: []cand{{1, 100}, {4, 101}}, full: true, bound2: 4,
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
				exec: func(p *Part, f factory) *Exec { return NewExec(p, f).successor(p, f) },
				k:    3, bound2: inf,
			},
			{
				// The kd-tree answers from its build-time snapshot; after the
				// publish reverses the line, its ranking is the wrong way round.
				name: "fallback stale",
				part: linePart(t, seq(12, unit), ownedFrom(12, 3), ident(12)),
				exec: func(p *Part, _ factory) *Exec {
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
	}
	engines := []struct {
		prefix   string // of the subtest names
		f        factory
		restrict bool
	}{
		{"", scan, false},
		{"octopus/", func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }, true},
	}
	for _, eng := range engines {
		for _, tc := range cases() {
			t.Run(eng.prefix+tc.name, func(t *testing.T) {
				x := NewExec(tc.part, eng.f)
				if tc.exec != nil {
					x = tc.exec(tc.part, eng.f)
				}
				var cur ExecCursor
				var kb query.KBest
				kb.Reset(tc.k)
				for _, c := range tc.heap {
					kb.Offer(c.d2, c.gid)
				}
				rounds := x.KNN(&cur, probe, tc.k, tc.full, tc.bound2, &kb)
				wantRounds := tc.rounds
				if eng.restrict {
					wantRounds = tc.restricted
				}
				if rounds != wantRounds {
					t.Errorf("rounds = %d, want %d", rounds, wantRounds)
				}
				if eng.restrict {
					for _, l := range cur.scratch {
						if d2 := tc.part.Mesh.Position(l).Dist2(probe); !tc.part.Owned[l] || tc.full && d2 > tc.bound2 {
							t.Errorf("the restricted engine ranked local %d (owned %v, d2 %v, bound %v)", l, tc.part.Owned[l], d2, tc.bound2)
						}
					}
				}
				gids, d2s := kb.AppendSortedDists(nil, nil)

				want := append(ownedBruteForce(tc.part, probe, tc.part.NumOwned), tc.heap...)
				sort.Slice(want, func(i, j int) bool {
					if want[i].d2 != want[j].d2 {
						return want[i].d2 < want[j].d2
					}
					return want[i].gid < want[j].gid
				})
				if len(want) > tc.k {
					want = want[:tc.k]
				}
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
}

// BenchmarkShardKNN is a kNN through the router on the live-inproc shape
// (neuro-l3 cut K = 4 ways, OCTOPUS per shard) over a fixed pool of 256
// probes with k in [8, 32], reporting legs/op and widenings/op beside
// ns/op. OCTOPUS's cursor is restricted to the owned vertices within the
// global bound, so a leg widens only on an exact distance tie at its
// horizon, which this pool never meets: any widening fails the benchmark.
func BenchmarkShardKNN(b *testing.B) {
	sm := benchSharded(b)
	r := NewRouter(sm, func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) })
	probes := workload.NewGenerator(sm.Global(), 4096, 18).KNNQueries(256, 8, 32, 0.05)
	cur := r.NewCursor()
	defer cur.Close()
	kc := cur.(query.KNNCursor)
	out := make([]int32, 0, 32)
	for _, q := range probes { // warm every shard cursor
		out = kc.KNN(q.P, q.K, out[:0])
	}
	_, _, _, legs0, widen0 := r.FanoutStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := probes[i%len(probes)]
		out = kc.KNN(q.P, q.K, out[:0])
	}
	b.StopTimer()
	_, _, _, legs, widen := r.FanoutStats()
	b.ReportMetric(float64(legs-legs0)/float64(b.N), "legs/op")
	b.ReportMetric(float64(widen-widen0)/float64(b.N), "widenings/op")
	if widen > 0 {
		b.Fatalf("%d legs widened on the core engine (%d before timing), want 0", widen, widen0)
	}
}
