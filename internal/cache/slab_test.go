package cache

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestGetHitAllocs: a memory hit allocates exactly once — the copy
// handed to the caller.
func TestGetHitAllocs(t *testing.T) {
	c := mustNew(t, Config{})
	key := "sha256:" + fmt.Sprintf("%064x", 42)
	c.Put(key, bytes.Repeat([]byte{'v'}, 300))
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(key); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 1 {
		t.Fatalf("Get hit allocates %v times, want 1", allocs)
	}
}

// refLRU is the memory tier's contract as a plain list-backed LRU:
// exact recency order, value-byte accounting, evict from the tail
// until the bound holds (an oversized value evicts everything and
// then itself).
type refLRU struct {
	max, bytes int64
	evictions  uint64
	ll         *list.List
	index      map[string]*list.Element
}

type refEntry struct {
	key string
	val []byte
}

func (r *refLRU) get(key string) ([]byte, bool) {
	el, ok := r.index[key]
	if !ok {
		return nil, false
	}
	r.ll.MoveToFront(el)
	return el.Value.(*refEntry).val, true
}

func (r *refLRU) put(key string, val []byte) {
	if el, ok := r.index[key]; ok {
		e := el.Value.(*refEntry)
		r.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		r.ll.MoveToFront(el)
	} else {
		r.index[key] = r.ll.PushFront(&refEntry{key, val})
		r.bytes += int64(len(val))
	}
	for r.bytes > r.max {
		back := r.ll.Back()
		e := back.Value.(*refEntry)
		r.ll.Remove(back)
		delete(r.index, e.key)
		r.bytes -= int64(len(e.val))
		r.evictions++
	}
}

// TestSlabTierMatchesReferenceLRU drives the slab tier and the
// reference LRU with one seeded stream of puts and gets over values
// from 0 bytes to past the largest slab class, and checks every
// lookup, the entry and byte counts, the evictions and the recency
// order agree, and that every mapping is accounted for.
func TestSlabTierMatchesReferenceLRU(t *testing.T) {
	for _, max := range []int64{4 << 10, 256 << 10} {
		rng := rand.New(rand.NewPCG(7, uint64(max)))
		c := mustNew(t, Config{MaxBytes: max})
		ref := &refLRU{max: max, ll: list.New(), index: map[string]*list.Element{}}
		sizes := []int{0, 1, 63, 200, 900, 3000, 70 << 10}
		for op := 0; op < 4000; op++ {
			key := fmt.Sprintf("sha256:%x", rng.IntN(64))
			if rng.IntN(3) == 0 {
				got, ok := c.Get(key)
				want, wok := ref.get(key)
				if ok != wok || !bytes.Equal(got, want) {
					t.Fatalf("max %d op %d get %s: (%d bytes, %v), want (%d bytes, %v)", max, op, key, len(got), ok, len(want), wok)
				}
				continue
			}
			n := sizes[rng.IntN(len(sizes))] + rng.IntN(16)
			val := bytes.Repeat([]byte{byte(op)}, n)
			c.Put(key, val)
			ref.put(key, val)
			st := c.Stats()
			if st.Entries != ref.ll.Len() || st.Bytes != ref.bytes || st.Evictions != ref.evictions {
				t.Fatalf("max %d op %d: %d entries/%d bytes/%d evictions, want %d/%d/%d",
					max, op, st.Entries, st.Bytes, st.Evictions, ref.ll.Len(), ref.bytes, ref.evictions)
			}
		}
		// Recency order, most recent first.
		i := 0
		for el := ref.ll.Front(); el != nil; el = el.Next() {
			id := c.mem.head
			for j := 0; j < i; j++ {
				id = c.mem.ents[id].next
			}
			want := el.Value.(*refEntry).key
			e := c.mem.ents[id]
			if got := string(c.mem.slotBytes(e.at)[:e.klen]); got != want {
				t.Fatalf("max %d: recency position %d holds %s, want %s", max, i, got, want)
			}
			i++
		}
		var mapped int64
		for _, ch := range c.mem.chunks {
			mapped += int64(len(ch.mem))
		}
		if st := c.Stats(); st.MappedBytes != mapped || st.MappedBytes < st.Bytes {
			t.Fatalf("max %d: mapped %d, chunks hold %d, values %d", max, st.MappedBytes, mapped, st.Bytes)
		}
	}
}

// TestHashCollisionChains: entries whose index hashes collide are
// told apart by their stored keys, and removing one keeps the rest of
// its chain reachable.
func TestHashCollisionChains(t *testing.T) {
	s := newSlabs()
	keys := []string{"a", "bb", "ccc", "dddd"}
	for _, k := range keys {
		class := classFor(len(k) + 3)
		at, ok := s.reserve(class)
		if !ok {
			at = s.adopt(make([]byte, mappingSize(class, 0)), class)
		}
		s.insert(1, k, []byte("v-"+k), at)
	}
	for _, k := range keys {
		id := s.lookup(1, k)
		if id < 0 || string(s.value(id)) != "v-"+k {
			t.Fatalf("lookup %q through a collision chain failed", k)
		}
	}
	s.remove(s.lookup(1, "bb"))
	s.remove(s.lookup(1, "dddd"))
	if s.lookup(1, "bb") >= 0 || s.lookup(1, "dddd") >= 0 {
		t.Fatal("removed entries still found")
	}
	for _, k := range []string{"a", "ccc"} {
		if id := s.lookup(1, k); id < 0 || string(s.value(id)) != "v-"+k {
			t.Fatalf("%q lost when its chain neighbours were removed", k)
		}
	}
}

// TestMappingsReleased: a value past the largest slab class gets its
// own mapping, released when it is evicted; a slab chunk emptied while
// its class has another chunk with room is released too.
func TestMappingsReleased(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	c.Put("sha256:big", make([]byte, 100<<10))
	st := c.Stats()
	if st.MappedBytes < 100<<10 {
		t.Fatalf("big value mapped %d bytes", st.MappedBytes)
	}
	c.Put("sha256:big", []byte("small now"))
	if after := c.Stats().MappedBytes; after >= st.MappedBytes {
		t.Fatalf("dedicated mapping kept: %d → %d bytes", st.MappedBytes, after)
	}

	// 64 KiB chunks of 1 KiB slots: 200 entries fill four chunks.
	c = mustNew(t, Config{MaxBytes: 1 << 30})
	val := make([]byte, 900)
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("sha256:%04d", i), val)
	}
	full := c.Stats().MappedBytes
	c2 := mustNew(t, Config{MaxBytes: 900 * 10})
	for i := 0; i < 200; i++ {
		c2.Put(fmt.Sprintf("sha256:%04d", i), val)
	}
	if got := c2.Stats().MappedBytes; got >= full {
		t.Fatalf("evicting down to 10 entries kept %d mapped bytes (%d when all 200 live)", got, full)
	}
}

// TestValuesStayOffHeap: caching 16 MiB of values grows the Go heap by
// a small fraction of that — the entry table and index, not the bytes.
func TestValuesStayOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := mustNew(t, Config{MaxBytes: 32 << 20})
	val := make([]byte, 1000)
	for i := 0; i < 16<<10; i++ {
		c.Put(fmt.Sprintf("sha256:%064x", i), val)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if st := c.Stats(); grown > st.Bytes/4 { // ~1.4 MB here; a heap tier grows by > Bytes
		t.Fatalf("heap grew %d bytes caching %d value bytes", grown, st.Bytes)
	}
	runtime.KeepAlive(c)
}
