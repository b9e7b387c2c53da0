package state

import (
	"fmt"
	"testing"

	"legalchain/internal/ethtypes"
	"legalchain/internal/uint256"
)

// benchAddr spreads addresses over two bytes so sweeps can exceed 255
// accounts.
func benchAddr(i int) ethtypes.Address {
	var a ethtypes.Address
	a[18] = byte(i >> 8)
	a[19] = byte(i)
	return a
}

// populateState builds a committed world of n contract accounts with
// slotsPer storage slots each.
func populateState(n, slotsPer int) *StateDB {
	s := New()
	for i := 0; i < n; i++ {
		a := benchAddr(i)
		s.AddBalance(a, uint256.NewUint64(uint64(1000+i)))
		s.SetNonce(a, 1)
		for j := 0; j < slotsPer; j++ {
			s.SetState(a, slot(byte(j)), uint256.NewUint64(uint64(i*100+j+1)))
		}
	}
	s.Root()
	return s
}

// dirtySome touches dirty out of n accounts (one slot write each),
// modelling a block that modifies a small fraction of the world state.
func dirtySome(s *StateDB, n, dirty, round int) {
	stride := n / dirty
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < n && i/stride < dirty; i += stride {
		s.SetState(benchAddr(i), slot(0), uint256.NewUint64(uint64(round*7+i+1)))
	}
}

// BenchmarkStateRoot_Incremental measures the production pipeline: dirty
// tracking + persistent tries + parallel storage hashing. Sweeps account
// count and dirty ratio.
func BenchmarkStateRoot_Incremental(b *testing.B) {
	for _, n := range []int{100, 1000} {
		for _, pct := range []int{1, 10, 100} {
			dirty := n * pct / 100
			if dirty == 0 {
				dirty = 1
			}
			b.Run(fmt.Sprintf("accounts=%d/dirty=%d%%", n, pct), func(b *testing.B) {
				s := populateState(n, 8)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dirtySome(s, n, dirty, i)
					s.Root()
				}
			})
		}
	}
}

// BenchmarkStateRoot_Rebuild is the same workload through the
// from-scratch oracle — the cost every Root() paid before the
// incremental pipeline.
func BenchmarkStateRoot_Rebuild(b *testing.B) {
	for _, n := range []int{100, 1000} {
		for _, pct := range []int{1, 10, 100} {
			dirty := n * pct / 100
			if dirty == 0 {
				dirty = 1
			}
			b.Run(fmt.Sprintf("accounts=%d/dirty=%d%%", n, pct), func(b *testing.B) {
				s := populateState(n, 8)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dirtySome(s, n, dirty, i)
					if s.RebuildRoot() == (ethtypes.Hash{}) {
						b.Fatal("zero root")
					}
				}
			})
		}
	}
}
