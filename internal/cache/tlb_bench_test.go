package cache

import "testing"

// BenchmarkTLBLookup times one Lookup under the reference patterns that
// matter: the same page over and over (a loop inside one page), a cycle
// over exactly as many pages as the TLB holds (every lookup a hit on a
// different slot), a cycle over one page more (FIFO's worst case: every
// lookup a miss, a replacement and a scan), and the resident cycle again
// with RTLB-shaped keys, whose low twelve bits are zero.
func BenchmarkTLBLookup(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pages int
		key   func(int) uint64
	}{
		{"same-page", 1, vpnKey},
		{"resident-64", 64, vpnKey},
		{"thrash-65", 65, vpnKey},
		{"frame-base-keys", 64, frameBaseKey},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tlb := NewTLB(64)
			keys := make([]uint64, bc.pages)
			for i := range keys {
				keys[i] = bc.key(i)
				tlb.Lookup(keys[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				tlb.Lookup(keys[k])
				if k++; k == len(keys) {
					k = 0
				}
			}
		})
	}
}
