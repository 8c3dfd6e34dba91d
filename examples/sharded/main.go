// Sharded mesh execution: the neuron mesh cut into 4 spatially coherent
// shards along the Hilbert order, each served by its own OCTOPUS engine,
// with queries routed across them. The demo shows the three things the
// partition buys:
//
//  1. Exactness — range and kNN results are bit-identical to the
//     unsharded engine (checked against brute force here), including for
//     boxes straddling shard cuts: a cut face is ordinary surface of each
//     sub-mesh, so every shard's crawler enters the straddling region
//     through the cut and the router stitches the halves back together.
//  2. Locality — the router's fan-out statistics show a selective query
//     touches far fewer than K shards.
//  3. Live overlap — in the deform+query pipeline a rebuild-per-step
//     inner engine (kd-tree) stalls only the queries that fan out to the
//     shard being rebuilt, instead of the whole mesh.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"octopus"
	"octopus/datasets"
)

func main() {
	m, err := datasets.Build(datasets.NeuroL2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("neuron mesh:", octopus.ComputeMeshStats(m))

	const K = 4
	sharded, err := octopus.NewShardedEngine(m, K, func(sub *octopus.Mesh) octopus.ParallelKNNEngine {
		return octopus.New(sub)
	})
	if err != nil {
		panic(err)
	}
	part := sharded.Mesh().Partition()
	for s, p := range part.Parts {
		sum, _ := p.Summary()
		fmt.Printf("  shard %d: %6d owned + %5d ghost vertices, %5d cut edges, box %v\n",
			s, p.NumOwned, p.Ghosts(), len(p.CutEdges), sum.Box)
	}

	// 1. Exactness on a mixed workload, including cut-straddling boxes.
	r := rand.New(rand.NewSource(5))
	diag := m.Bounds().Size().Len()
	queries := make([]octopus.AABB, 64)
	for i := range queries {
		c := m.Position(int32(r.Intn(m.NumVertices())))
		queries[i] = octopus.BoxAround(c, diag*(0.01+0.05*r.Float64()))
	}
	results := octopus.ExecuteBatch(sharded, queries, 0)
	exact := 0
	for i, got := range results {
		want := octopus.BruteForce(m, queries[i])
		if octopusDiff(got, want) {
			exact++
		}
	}
	fmt.Printf("\nrange: %d/%d batched queries exact vs brute force\n", exact, len(queries))

	probes := make([]octopus.KNNQuery, 32)
	for i := range probes {
		probes[i] = octopus.KNNQuery{P: m.Position(int32(r.Intn(m.NumVertices()))), K: 1 + r.Intn(24)}
	}
	kres := octopus.ExecuteKNNBatch(sharded, probes, 0)
	exact = 0
	for i, got := range kres {
		want := octopus.BruteForceKNN(m, probes[i].P, probes[i].K)
		same := len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j] == want[j]
		}
		if same {
			exact++
		}
	}
	fmt.Printf("kNN:   %d/%d probes exact vs brute force (order-sensitive)\n", exact, len(probes))

	// 2. Locality: fan-out statistics.
	rq, rf, kq, ks, widen := sharded.FanoutStats()
	fmt.Printf("\nfan-out: %.2f of %d shards per range query, %.2f scanned per kNN (%d widening rounds)\n",
		float64(rf)/float64(rq), K, float64(ks)/float64(kq), widen)

	// 3. Live pipeline with a rebuild-per-step inner engine: per-shard
	// maintenance means queries keep draining while one shard rebuilds.
	m2, err := datasets.Build(datasets.NeuroL2, 1)
	if err != nil {
		panic(err)
	}
	deformer, err := datasets.NewDeformer(datasets.NeuroL2, datasets.DefaultAmplitude)
	if err != nil {
		panic(err)
	}
	shardedKD, err := octopus.NewShardedEngine(m2, K, func(sub *octopus.Mesh) octopus.ParallelKNNEngine {
		return octopus.NewKDTree(sub, 0)
	})
	if err != nil {
		panic(err)
	}
	gen2 := rand.New(rand.NewSource(9))
	liveQueries := make([]octopus.AABB, 256)
	for i := range liveQueries {
		c := m2.Position(int32(gen2.Intn(m2.NumVertices())))
		liveQueries[i] = octopus.BoxAround(c, diag*0.03)
	}
	pl := octopus.NewPipeline(shardedKD, shardedKD.Mesh(), deformer.Step, 300*time.Microsecond, 0)
	pl.MinSteps = 4
	report := pl.Run(liveQueries, nil)
	latMean, latP99 := octopus.LatencyStats(report.RangeTraces, 0.99)
	staleMean, staleMax := octopus.StalenessStats(report.RangeTraces)
	fmt.Printf("\nlive (sharded kd-tree, per-shard rebuilds): %d steps published while %d queries drained\n",
		report.Steps, len(liveQueries))
	fmt.Printf("  latency mean %v p99 %v, staleness mean %.3f max %d epochs\n",
		latMean, latP99, staleMean, staleMax)
}

// octopusDiff reports set equality of two id slices.
func octopusDiff(got, want []int32) bool {
	g := append([]int32(nil), got...)
	w := append([]int32(nil), want...)
	return octopus.Diff(g, w) == ""
}
