// Command shardserver serves one shard — or every shard — of a
// partitioned dataset over the dist wire protocol (DESIGN.md §15). Each
// process builds the dataset deterministically from its id and scale,
// cuts it K ways (the Hilbert partition is a pure function of the mesh
// and K, so every process agrees on shard boundaries), and answers
// range/kNN/epoch RPCs for the shards it owns.
//
// A driver process runs the other half: dist.NewRouter over the printed
// addresses for queries, and dist.NewControlPlane (over an identically
// built sharded mesh) to push deformation steps and drive maintenance.
//
// Example — three single-shard servers plus an all-shards one:
//
//	shardserver -dataset neuro-l2 -k 3 -shard 0 -addr 127.0.0.1:7070
//	shardserver -dataset neuro-l2 -k 3 -shard 1 -addr 127.0.0.1:7071
//	shardserver -dataset neuro-l2 -k 3 -shard 2 -addr 127.0.0.1:7072
//	shardserver -dataset neuro-l2 -k 3               # all shards, ephemeral ports
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/grid"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/lurtree"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/octree"
	"octopus/internal/query"
	"octopus/internal/qutrade"
	"octopus/internal/shard"
)

// engineFactories maps -engine names to constructors with the standard
// tuning (the same table the benchmarks and equivalence tests use).
func engineFactories() map[string]func(*mesh.Mesh) query.ParallelKNNEngine {
	return map[string]func(*mesh.Mesh) query.ParallelKNNEngine{
		"LinearScan":     func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) },
		"OCTOPUS":        func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) },
		"OCTOPUS-CON":    func(m *mesh.Mesh) query.ParallelKNNEngine { return core.NewCon(m, 0) },
		"OCTOPUS-Hybrid": func(m *mesh.Mesh) query.ParallelKNNEngine { return core.NewHybrid(m, 0, core.Calibrate(m)) },
		"KD-Tree":        func(m *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(m, 0) },
		"OCTREE":         func(m *mesh.Mesh) query.ParallelKNNEngine { return octree.NewEngine(m, 0) },
		"LU-Grid":        func(m *mesh.Mesh) query.ParallelKNNEngine { return grid.NewLUEngine(m, 4096) },
		"LUR-Tree":       func(m *mesh.Mesh) query.ParallelKNNEngine { return lurtree.New(m, 0) },
		"QU-Trade":       func(m *mesh.Mesh) query.ParallelKNNEngine { return qutrade.New(m, 0, 0) },
	}
}

func main() {
	dataset := flag.String("dataset", string(meshgen.NeuroL2), "dataset id")
	scale := flag.Float64("scale", meshgen.Scale(), "dataset scale factor")
	k := flag.Int("k", 4, "number of shards in the partition")
	shardIdx := flag.Int("shard", -1, "shard index to serve; -1 serves every shard in this process")
	engineName := flag.String("engine", "OCTOPUS", "shard engine")
	addr := flag.String("addr", "127.0.0.1:0", "listen address for -shard >= 0 (port 0 = ephemeral); all-shards mode always uses ephemeral ports on the same host")
	flag.Parse()

	factory, ok := engineFactories()[*engineName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engineName)
		os.Exit(2)
	}

	m, err := meshgen.Build(meshgen.Dataset(*dataset), *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sm, err := shard.NewMesh(m, *k, shard.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	parts := sm.Partition().Parts
	if *shardIdx >= len(parts) {
		fmt.Fprintf(os.Stderr, "shard %d out of range: the partition has %d shards\n", *shardIdx, len(parts))
		os.Exit(2)
	}

	serve := func(i int, listenAddr string) *dist.TCPServer {
		p := parts[i]
		srv := dist.NewServer(p, factory)
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ts := dist.NewTCPServer(ln, srv)
		fmt.Printf("shard %d/%d serving on %s: engine %s, %d owned + %d ghost vertices, epoch %d\n",
			i, len(parts), ts.Addr(), srv.Engine().Name(), p.NumOwned, p.Ghosts(), p.Mesh.Epoch())
		return ts
	}

	var servers []*dist.TCPServer
	if *shardIdx >= 0 {
		servers = append(servers, serve(*shardIdx, *addr))
	} else {
		host, _, err := net.SplitHostPort(*addr)
		if err != nil || host == "" {
			host = "127.0.0.1"
		}
		for i := range parts {
			servers = append(servers, serve(i, net.JoinHostPort(host, "0")))
		}
	}

	// Serve until killed; a listener failure takes the process down so an
	// orchestrator notices (crash-only — the router degrades honestly).
	errc := make(chan error, len(servers))
	for _, ts := range servers {
		ts := ts
		go func() { errc <- ts.Serve() }()
	}
	fmt.Fprintln(os.Stderr, <-errc)
	os.Exit(1)
}
