package lru

import (
	"fmt"
	"sync"
	"testing"
)

// TestCache runs every rule of the cache under both budgets it is used
// with: one unit per entry (the result caches) and bytes per entry (the
// postings cache, whose entries differ in size).
func TestCache(t *testing.T) {
	type op struct {
		put  string // key to Put, or
		get  string // key to Get
		cost int64
		want bool // for a get: hit or miss
	}
	put := func(k string, cost int64) op { return op{put: k, cost: cost} }
	hit := func(k string) op { return op{get: k, want: true} }
	miss := func(k string) op { return op{get: k} }

	for _, tc := range []struct {
		name     string
		budget   int64
		ops      []op
		wantLen  int
		wantUsed int64
	}{
		{"entries/replace on a repeated key", 2,
			[]op{put("a", 1), put("b", 1), put("a", 1), hit("a"), hit("b")}, 2, 2},
		{"entries/promotion on Get", 2,
			[]op{put("a", 1), put("b", 1), hit("a"), put("c", 1), miss("b"), hit("a"), hit("c")}, 2, 2},
		{"entries/eviction from the cold end", 3,
			[]op{put("a", 1), put("b", 1), put("c", 1), put("d", 1), put("e", 1), miss("a"), miss("b"), hit("c"), hit("d"), hit("e")}, 3, 3},
		{"entries/an entry larger than the budget", 2,
			[]op{put("a", 1), put("big", 3), miss("big"), hit("a")}, 1, 1},
		{"entries/budget below 1 disables", 0,
			[]op{put("a", 1), miss("a")}, 0, 0},
		{"entries/negative budget disables", -1,
			[]op{put("a", 1), miss("a")}, 0, 0},

		{"bytes/replace on a repeated key", 100,
			[]op{put("a", 40), put("b", 40), put("a", 60), hit("a"), hit("b")}, 2, 100},
		{"bytes/replace that no longer fits evicts the cold end", 100,
			[]op{put("a", 40), put("b", 40), put("a", 70), hit("a"), miss("b")}, 1, 70},
		{"bytes/promotion on Get", 100,
			[]op{put("a", 40), put("b", 40), hit("a"), put("c", 40), miss("b"), hit("a"), hit("c")}, 2, 80},
		{"bytes/eviction from the cold end", 100,
			[]op{put("a", 30), put("b", 30), put("c", 30), put("d", 60), miss("a"), miss("b"), hit("c"), hit("d")}, 2, 90},
		{"bytes/an entry larger than the budget", 100,
			[]op{put("a", 40), put("big", 101), miss("big"), hit("a")}, 1, 40},
		{"bytes/a larger-than-budget replacement drops the old value", 100,
			[]op{put("a", 40), put("a", 101), miss("a")}, 0, 0},
		{"bytes/budget below 1 disables", 0,
			[]op{put("a", 8), miss("a")}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, string](tc.budget)
			gen := map[string]int{} // Puts so far per key: the value a hit must return
			for i, o := range tc.ops {
				if o.put != "" {
					gen[o.put]++
					c.Put(o.put, fmt.Sprint(o.put, gen[o.put]), o.cost)
					continue
				}
				v, ok := c.Get(o.get)
				if ok != o.want {
					t.Fatalf("op %d: Get(%q) hit=%v, want %v", i, o.get, ok, o.want)
				}
				if want := fmt.Sprint(o.get, gen[o.get]); ok && v != want {
					t.Fatalf("op %d: Get(%q) = %q, want the last value put, %q", i, o.get, v, want)
				}
			}
			if c.Len() != tc.wantLen || c.Used() != tc.wantUsed {
				t.Fatalf("holds %d entries costing %d, want %d costing %d", c.Len(), c.Used(), tc.wantLen, tc.wantUsed)
			}
		})
	}
}

// TestGetDoesNotAllocate pins the hit path all three caches sit on.
func TestGetDoesNotAllocate(t *testing.T) {
	c := New[string, []int](4)
	c.Put("a", []int{1}, 1)
	c.Put("b", []int{2}, 1)
	if n := testing.AllocsPerRun(100, func() {
		c.Get("a")
		c.Get("b")
		c.Get("absent")
	}); n != 0 {
		t.Fatalf("Get allocates %v times per run, want 0", n)
	}
}

// TestConcurrentUse hammers one small cache from several goroutines; it
// is the -race target, and checks the accounting the eviction loop
// depends on once they are done.
func TestConcurrentUse(t *testing.T) {
	const budget = 64
	c := New[int, int](budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*31 + i) % 40
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
				}
				c.Put(k, k, int64(1+k%7))
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	var sum int64
	for k := 0; k < 40; k++ {
		if _, ok := c.Get(k); ok {
			sum += int64(1 + k%7)
		}
	}
	if c.Used() != sum || sum > budget {
		t.Fatalf("Used() = %d, entries held cost %d, budget %d", c.Used(), sum, budget)
	}
}
