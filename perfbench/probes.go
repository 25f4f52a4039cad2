package main

import (
	"testing"

	"dex/internal/bench"
	"dex/internal/sim"
)

// unitCosts measures the simulator layers' unit costs in host ns per
// operation: event dispatch, the DSM fault fast (local hit) and slow (write
// ping-pong across the fabric) paths, and one task switch.
func unitCosts() map[string]float64 {
	ns := func(fn func(*testing.B)) float64 {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			return 0
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return map[string]float64{
		"sim.dispatch_ns":   ns(bench.EventDispatch),
		"dsm.fault_fast_ns": ns(bench.FaultFastPath),
		"dsm.fault_slow_ns": ns(bench.FaultSlowPath),
		"sim.switch_ns":     ns(taskSwitch),
	}
}

// taskSwitch ping-pongs control between two tasks of one engine with
// Unpark/Park; each b.N iteration is one switch from one task to the other.
func taskSwitch(b *testing.B) {
	eng := sim.NewEngine(1)
	var ping, pong *sim.Task
	rounds := b.N / 2
	pong = eng.Spawn("pong", func(t *sim.Task) {
		for i := 0; i < rounds; i++ {
			t.Park("pong")
			ping.Unpark()
		}
	})
	ping = eng.Spawn("ping", func(t *sim.Task) {
		b.ResetTimer()
		for i := 0; i < rounds; i++ {
			pong.Unpark()
			t.Park("ping")
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
