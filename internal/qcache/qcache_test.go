package qcache

import (
	"sync"
	"testing"

	"repro/internal/testutil"
)

func key(epoch uint64, fx, fy float64, k int) Key {
	return Key{Epoch: epoch, FX: fx, FY: fy, K: k, Shape: ShapeKNNSelect}
}

func TestGetPut(t *testing.T) {
	c := New(64)
	k1 := key(1, 5000, 5000, 10)
	if _, ok := c.Get(k1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k1, []int32{3, 1, 4})
	ids, ok := c.Get(k1)
	if !ok || len(ids) != 3 || ids[0] != 3 || ids[1] != 1 || ids[2] != 4 {
		t.Fatalf("Get after Put: %v %v", ids, ok)
	}

	// Every key field participates: perturbing any one misses.
	for _, other := range []Key{
		key(2, 5000, 5000, 10),
		key(1, 5000.5, 5000, 10),
		key(1, 5000, 4999, 10),
		key(1, 5000, 5000, 11),
		{Epoch: 1, FX: 5000, FY: 5000, K: 10, Shape: ShapeKNNSelect + 1},
	} {
		if _, ok := c.Get(other); ok {
			t.Fatalf("key %+v unexpectedly hit the entry for %+v", other, k1)
		}
	}

	// Put on a resident key replaces the value.
	c.Put(k1, []int32{7})
	if ids, _ := c.Get(k1); len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("Put did not replace: %v", ids)
	}
}

// TestEpochInvalidation is the invalidation contract: entries of a stale
// epoch become unreachable because the epoch is part of the key.
func TestEpochInvalidation(t *testing.T) {
	c := New(64)
	c.Put(key(1, 1, 2, 5), []int32{0})
	if _, ok := c.Get(key(2, 1, 2, 5)); ok {
		t.Fatal("bumped epoch still hits the stale entry")
	}
	c.Put(key(2, 1, 2, 5), []int32{1})
	if ids, ok := c.Get(key(2, 1, 2, 5)); !ok || ids[0] != 1 {
		t.Fatalf("fresh-epoch entry not served: %v %v", ids, ok)
	}
}

// TestBounded holds the cache to its capacity contract: residency never
// exceeds the rounded-up shard budget no matter how many keys are inserted.
func TestBounded(t *testing.T) {
	const capacity = 64
	c := New(capacity)
	perShard := (capacity + nShards - 1) / nShards
	for i := 0; i < 100*capacity; i++ {
		c.Put(key(1, float64(i), float64(i%7), i%13+1), []int32{int32(i)})
	}
	if got, max := c.Len(), perShard*nShards; got > max {
		t.Fatalf("cache grew to %d entries, bound is %d", got, max)
	}
	if c.Len() == 0 {
		t.Fatal("cache evicted everything")
	}
}

func TestDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		if c := New(capacity); c.perShard != 4096/nShards {
			t.Fatalf("New(%d): per-shard budget %d", capacity, c.perShard)
		}
	}
}

// TestGetAllocs is the acceptance criterion on the hit path: a probe that
// hits allocates nothing.
func TestGetAllocs(t *testing.T) {
	c := New(64)
	k1 := key(1, 5000, 5000, 10)
	c.Put(k1, []int32{1, 2, 3})
	allocs := testutil.AllocsPerRun(t, 1000, func() {
		if _, ok := c.Get(k1); !ok {
			t.Fatal("probe missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %v objects per probe, want 0", allocs)
	}
}

// TestConcurrent drives overlapping Get/Put/Len from many goroutines; the
// -race build is the assertion.
func TestConcurrent(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(uint64(g%2+1), float64(i%40), float64(g), i%5+1)
				if i%3 == 0 {
					c.Put(k, []int32{int32(i)})
				} else {
					c.Get(k)
				}
			}
			c.Len()
		}(g)
	}
	wg.Wait()
}
