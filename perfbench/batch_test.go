package main

import "testing"

// TestColdVariantRotates checks that the cold re-runs cover every suffix
// position within batchVariants sampled batches.
func TestColdVariantRotates(t *testing.T) {
	seen := map[int]bool{}
	for k := 0; k < batchVariants; k++ {
		seen[coldVariant(k*batchCheckEvery)] = true
	}
	if len(seen) != batchVariants {
		t.Fatalf("the first %d sampled batches check %d distinct variants, want %d", batchVariants, len(seen), batchVariants)
	}
}
