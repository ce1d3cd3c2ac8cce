package cache

import "testing"

// BenchmarkTLBLookup times one Lookup under the reference patterns that
// matter: the same page over and over (a loop inside one page), a cycle
// over exactly as many pages as the TLB holds (every lookup a hit on a
// different slot), and a cycle over one page more (FIFO's worst case:
// every lookup a miss and a replacement). Each page keeps its hint the
// way a page record does.
func BenchmarkTLBLookup(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pages int
	}{
		{"same-page", 1},
		{"resident-64", 64},
		{"thrash-65", 65},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tlb := NewTLB(64)
			hints := make([]uint16, bc.pages)
			for k := range hints {
				tlb.Lookup(uint64(k), &hints[k])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				tlb.Lookup(uint64(k), &hints[k])
				if k++; k == len(hints) {
					k = 0
				}
			}
		})
	}
}
