package watch

import (
	"fmt"
	"testing"
)

// BenchmarkContractTimeline is the read behind GET
// /api/v1/contracts/{addr}/timeline: one contract's events and entry
// while the tower tracks 10, 100 or 1 000 contracts (three buffered
// events each).
func BenchmarkContractTimeline(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("contracts=%d", n), func(b *testing.B) {
			tw, addrs := syntheticTower(b, n, Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := tw.ContractTimeline(addrs[i%n]); !ok {
					b.Fatal("untracked")
				}
			}
		})
	}
}

// BenchmarkTowerStatus is legal_watchStatus's read: every tracked
// contract, sorted, with its obligations.
func BenchmarkTowerStatus(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("contracts=%d", n), func(b *testing.B) {
			tw, _ := syntheticTower(b, n, Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tw.Status()
			}
		})
	}
}

// BenchmarkEventBufferAtCap records one payment event into a buffer
// already holding the default MemEvents: the steady state of a
// long-running tower.
func BenchmarkEventBufferAtCap(b *testing.B) {
	tw, addrs := syntheticTower(b, 1, Config{})
	hex := addrs[0].Hex()
	tw.mu.Lock()
	defer tw.mu.Unlock()
	for len(tw.events) < tw.cfg.MemEvents {
		tw.bufferLocked(&Event{Type: "payment", Contract: hex})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.recordLocked(&Event{Type: "payment", Block: uint64(i), Contract: hex, Month: 2, AmountWei: "1000"})
	}
}
