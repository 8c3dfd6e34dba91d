package bench

import (
	"io"
	"testing"

	"octopus/internal/meshgen"
)

// TestShardExperimentSmoke runs the sharded driver end to end on one
// dataset, two engines and one shard count (the sharded staleness bound
// lives in TestMaintainExperimentSmoke). The full 9-engine × {1,2,4,8}
// sweep runs in CI's bench-smoke job (octopus-bench -exp sharded).
func TestShardExperimentSmoke(t *testing.T) {
	tables, err := shardedTables(QuickConfig(),
		[]meshgen.Dataset{meshgen.DSHorse}, Engines("LinearScan", "OCTOPUS"), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	if len(tables[0].Rows) != 2 {
		t.Fatalf("got %d rows, want one per engine", len(tables[0].Rows))
	}
	tables[0].Render(io.Discard)
}
