package lru

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// keys lists the resident values, most recently used first.
func keys(c *Cache[string]) []string {
	var out []string
	c.Each(func(v string) { out = append(out, v) })
	return out
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string](2)
	c.Put("a", "a")
	c.Put("b", "b")
	if _, ok := c.Get("a"); !ok { // a is now the most recent
		t.Fatal("a missing")
	}
	c.Put("c", "c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; the least recently used entry must go")
	}
	if got := keys(c); !slices.Equal(got, []string{"c", "a"}) {
		t.Errorf("resident %v, want [c a]", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if New[string](0).max != 1 {
		t.Error("a bound below 1 must hold one entry")
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	c := New[string](2)
	c.Put("a", "a1")
	c.Put("b", "b")
	c.Put("a", "a2") // replaces, refreshes a, evicts nothing
	if c.Len() != 2 {
		t.Fatalf("Len = %d after a replacing Put, want 2", c.Len())
	}
	if v, _ := c.Get("a"); v != "a2" {
		t.Errorf("a = %q, want a2", v)
	}
	c.Put("c", "c") // b is now the least recent
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; the replacing Put must have refreshed a")
	}
}

func TestEachDoesNotRefresh(t *testing.T) {
	c := New[string](2)
	c.Put("a", "a")
	c.Put("b", "b")
	c.Each(func(string) {}) // visits a, which stays least recent
	c.Put("c", "c")
	if _, ok := c.Get("a"); ok {
		t.Error("a survived; Each must not refresh recency")
	}
}

// TestGetOrPutCreatesOnce races many callers on one key: exactly one of
// them must create the entry and see found false, and all must get it.
func TestGetOrPutCreatesOnce(t *testing.T) {
	c := New[*int](4)
	var created atomic.Int32
	var wg sync.WaitGroup
	got := make([]*int, 16)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, found := c.GetOrPut("k", func() *int { return new(int) })
			if !found {
				created.Add(1)
			}
			got[g] = v
		}()
	}
	wg.Wait()
	if n := created.Load(); n != 1 {
		t.Fatalf("%d callers created the entry, want 1", n)
	}
	for g, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 %p", g, v, got[0])
		}
	}
}
