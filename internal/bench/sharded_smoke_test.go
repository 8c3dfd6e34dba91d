package bench

import (
	"io"
	"testing"

	"octopus/internal/meshgen"
)

// TestShardExperimentSmoke ("Shard", not "Sharded": the CI race job's
// -run regex matches 'Sharded' and must not drag this full benchmark
// sweep under the race detector) runs the sharded experiment end to end:
// the acceptance check that the experiment is registered and runnable
// (the sharded staleness bound lives in TestMaintainExperimentSmoke). In
// -short mode the sweep is trimmed to one dataset, two engines and one
// shard count so it stays within the CI test budget; the full 9-engine ×
// {1,2,4,8} sweep runs in the non-short suite.
func TestShardExperimentSmoke(t *testing.T) {
	cfg := QuickConfig()
	var (
		tables []*Table
		err    error
	)
	if testing.Short() {
		factories := knnEngineFactories()[:2] // scan + OCTOPUS
		tables, err = shardedTables(cfg,
			[]meshgen.Dataset{meshgen.DSHorse}, factories, []int{2})
	} else {
		tables, err = Sharded(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("empty table")
	}
	tables[0].Render(io.Discard)
}
