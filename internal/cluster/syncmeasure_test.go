package cluster

import (
	"os"
	"testing"
	"time"

	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// TestMeasureRecoverySyncCadence is the measurement run behind the
// node's per-tick round-pull batch (README "Recovery cadence"): under
// the WAN latency model, crash one replica long enough to open a deep
// round gap, restart it, and time full reconvergence. Skipped unless
// MEASURE_SYNC=1 — it is an experiment, not an invariant.
func TestMeasureRecoverySyncCadence(t *testing.T) {
	if os.Getenv("MEASURE_SYNC") != "1" {
		t.Skip("measurement run; set MEASURE_SYNC=1")
	}
	var total time.Duration
	const trials = 2
	for trial := 0; trial < trials; trial++ {
		c, err := New(Config{
			N: 4, Latency: transport.WANModel(),
			Accounts: 32, BatchSize: 32, Executors: 2, Validators: 2,
			Seed: int64(25600 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		load := make(chan struct{})
		go func() {
			defer close(load)
			c.RunLoad(LoadConfig{
				Duration: 8 * time.Second, Clients: 4,
				Workload:   workload.Config{Theta: 0.7, ReadRatio: 0.5, Conserving: true},
				RetryEvery: time.Second, Timeout: 60 * time.Second,
			})
		}()
		time.Sleep(1 * time.Second)
		c.Network().Crash(types.ReplicaID(3))
		time.Sleep(6 * time.Second)
		gap := c.Node(0).Stats().Round - c.Node(3).Stats().Round
		c.Network().Restart(types.ReplicaID(3))
		start := time.Now()
		if err := c.WaitConverged(60 * time.Second); err != nil {
			t.Fatalf("no reconvergence: %v", err)
		}
		dt := time.Since(start)
		total += dt
		t.Logf("trial=%d gap≈%d rounds reconverge=%s", trial, gap, dt.Round(time.Millisecond))
		<-load
		c.Stop()
	}
	t.Logf("mean reconverge=%s", (total / trials).Round(time.Millisecond))
}
