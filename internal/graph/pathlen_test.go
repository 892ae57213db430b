package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cxrpq/internal/workload"
)

// Property: HasPathOfLen(k+1), one frontier sweep, says what the growth of
// PathLabels from length k to k+1 says: whether some path is longer than k.
// It is the image-cap note of `cxrpq -algo any`.
func TestQuickHasPathOfLenMatchesPathLabels(t *testing.T) {
	f := func(seed int64) bool {
		db := workload.Random(seed^0x4e4e, 4, int(uint64(seed)%9), "ab")
		for k := 0; k <= 2; k++ {
			want := len(db.PathLabels(k+1, 0)) > len(db.PathLabels(k, 0))
			if db.HasPathOfLen(k+1) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
}
