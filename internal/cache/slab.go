package cache

import (
	"encoding/binary"
	"hash/maphash"
)

// The memory tier keeps its keys and values off the Go heap. Each
// entry's key and value bytes sit back to back in one slot of an
// mmap'd slab: slots come in size classes (64-byte steps up to 1 KiB,
// then powers of two up to 64 KiB), and an entry too big for the
// largest class gets a mapping of its own. What stays on the heap is
// pointer-free — the entry table with its LRU links and the
// hash-to-entry index — so the collector neither scans cached bytes
// nor budgets headroom for them.
//
// A slabs value is not safe for concurrent use: the Cache guards it
// with its mutex. Mappings are made and released by the Cache outside
// that mutex (mapMem/unmapMem), so slabs itself never makes a system
// call: it adopts mappings handed to it and returns the ones it no
// longer needs.

// slotSizes are the slab size classes, ascending.
var slotSizes = func() []int {
	var s []int
	for n := 64; n <= 1024; n += 64 {
		s = append(s, n)
	}
	for n := 2048; n <= 64<<10; n *= 2 {
		s = append(s, n)
	}
	return s
}()

// classFor returns the smallest class holding n bytes, or -1 when n
// needs a dedicated mapping.
func classFor(n int) int {
	for c, size := range slotSizes {
		if n <= size {
			return c
		}
	}
	return -1
}

// mappingSize returns the bytes to map for a new chunk of class (at
// least 64 KiB and four slots), or for one entry of need bytes when
// class is -1.
func mappingSize(class, need int) int {
	if class < 0 {
		return need
	}
	return max(64<<10, 4*slotSizes[class])
}

// chunk is one mapping: a run of equal slots of one class, or a
// dedicated mapping holding a single large entry (class −1).
type chunk struct {
	mem   []byte
	class int32
	live  int32 // slots in use
	bump  int32 // slots handed out at least once
	free  int32 // head of the free-slot list threaded through the slots; −1 when empty
}

func (ch *chunk) slots() int32 {
	if ch.class < 0 {
		return 1
	}
	return int32(len(ch.mem) / slotSizes[ch.class])
}

func (ch *chunk) hasRoom() bool { return ch.free >= 0 || ch.bump < ch.slots() }

// slotRef names one slot.
type slotRef struct{ chunk, slot int32 }

// ent is one cached entry. It holds no pointers.
type ent struct {
	hash       uint64
	at         slotRef
	klen, vlen int32
	prev, next int32 // LRU neighbours, −1 at either end
	chain      int32 // next entry with the same hash, −1 at the end
}

// slabs is the off-heap store behind the memory tier.
type slabs struct {
	seed       maphash.Seed
	chunks     []chunk
	freeChunks []int32
	partial    [][]int32 // per class: chunks with a free slot
	ents       []ent
	freeEnts   []int32
	index      map[uint64]int32 // hash → first entry of its chain
	head, tail int32            // most and least recently used, −1 when empty
	live       int
	mapped     int64
}

func newSlabs() *slabs {
	return &slabs{
		seed:    maphash.MakeSeed(),
		partial: make([][]int32, len(slotSizes)),
		index:   make(map[uint64]int32),
		head:    -1,
		tail:    -1,
	}
}

func (s *slabs) slotBytes(at slotRef) []byte {
	ch := &s.chunks[at.chunk]
	if ch.class < 0 {
		return ch.mem
	}
	size := slotSizes[ch.class]
	off := int(at.slot) * size
	return ch.mem[off : off+size]
}

// hash is the index hash of key.
func (s *slabs) hash(key string) uint64 { return maphash.String(s.seed, key) }

// lookup returns the entry of key, whose hash is h, or −1.
func (s *slabs) lookup(h uint64, key string) int32 {
	id, ok := s.index[h]
	for ok && id >= 0 {
		e := &s.ents[id]
		if int(e.klen) == len(key) && string(s.slotBytes(e.at)[:e.klen]) == key {
			return id
		}
		id = e.chain
	}
	return -1
}

// value returns a view of an entry's value bytes, valid until the
// entry is removed.
func (s *slabs) value(id int32) []byte {
	e := &s.ents[id]
	return s.slotBytes(e.at)[e.klen : e.klen+e.vlen]
}

// reserve takes a free slot of class, reporting false when every
// chunk of the class is full (or class is −1): the caller then maps a
// chunk and hands it to adopt.
func (s *slabs) reserve(class int) (slotRef, bool) {
	if class < 0 || len(s.partial[class]) == 0 {
		return slotRef{}, false
	}
	p := s.partial[class]
	id := p[len(p)-1]
	ch := &s.chunks[id]
	var slot int32
	if ch.free >= 0 {
		slot = ch.free
		ch.free = int32(binary.LittleEndian.Uint32(s.slotBytes(slotRef{id, slot})))
	} else {
		slot = ch.bump
		ch.bump++
	}
	ch.live++
	if !ch.hasRoom() {
		s.partial[class] = p[:len(p)-1]
	}
	return slotRef{id, slot}, true
}

// adopt takes over a fresh mapping as a chunk of class and reserves
// its first slot.
func (s *slabs) adopt(mem []byte, class int) slotRef {
	ch := chunk{mem: mem, class: int32(class), free: -1, live: 1, bump: 1}
	var id int32
	if n := len(s.freeChunks); n > 0 {
		id = s.freeChunks[n-1]
		s.freeChunks = s.freeChunks[:n-1]
		s.chunks[id] = ch
	} else {
		id = int32(len(s.chunks))
		s.chunks = append(s.chunks, ch)
	}
	s.mapped += int64(len(mem))
	if class >= 0 && s.chunks[id].hasRoom() {
		s.partial[class] = append(s.partial[class], id)
	}
	return slotRef{id, 0}
}

// release frees a slot, returning its chunk's mapping when the chunk
// is no longer needed: a dedicated mapping always, a slab chunk once
// it is empty and its class has another chunk with room.
func (s *slabs) release(at slotRef) []byte {
	ch := &s.chunks[at.chunk]
	if ch.class < 0 {
		return s.dropChunk(at.chunk)
	}
	class := ch.class
	wasFull := !ch.hasRoom()
	binary.LittleEndian.PutUint32(s.slotBytes(at), uint32(ch.free))
	ch.free = at.slot
	ch.live--
	p := s.partial[class]
	if wasFull {
		s.partial[class] = append(p, at.chunk)
		return nil
	}
	if ch.live > 0 || len(p) < 2 {
		return nil
	}
	for i, id := range p {
		if id == at.chunk {
			s.partial[class] = append(p[:i], p[i+1:]...)
			break
		}
	}
	return s.dropChunk(at.chunk)
}

func (s *slabs) dropChunk(id int32) []byte {
	mem := s.chunks[id].mem
	s.chunks[id] = chunk{}
	s.freeChunks = append(s.freeChunks, id)
	s.mapped -= int64(len(mem))
	return mem
}

// insert copies key (whose hash is h) and val into the reserved slot
// at and links the new entry as most recently used. key must not be
// present.
func (s *slabs) insert(h uint64, key string, val []byte, at slotRef) {
	b := s.slotBytes(at)
	copy(b, key)
	copy(b[len(key):], val)
	e := ent{hash: h, at: at, klen: int32(len(key)), vlen: int32(len(val)), prev: -1, next: s.head, chain: -1}
	if first, ok := s.index[h]; ok {
		e.chain = first
	}
	var id int32
	if n := len(s.freeEnts); n > 0 {
		id = s.freeEnts[n-1]
		s.freeEnts = s.freeEnts[:n-1]
		s.ents[id] = e
	} else {
		id = int32(len(s.ents))
		s.ents = append(s.ents, e)
	}
	s.index[h] = id
	if s.head >= 0 {
		s.ents[s.head].prev = id
	} else {
		s.tail = id
	}
	s.head = id
	s.live++
}

// touch marks an entry most recently used.
func (s *slabs) touch(id int32) {
	if s.head == id {
		return
	}
	s.unlink(id)
	e := &s.ents[id]
	e.prev, e.next = -1, s.head
	s.ents[s.head].prev = id
	s.head = id
}

func (s *slabs) unlink(id int32) {
	e := &s.ents[id]
	if e.prev >= 0 {
		s.ents[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.ents[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// remove drops an entry, returning a mapping to release (or nil).
func (s *slabs) remove(id int32) []byte {
	s.unlink(id)
	e := s.ents[id]
	if first := s.index[e.hash]; first == id {
		if e.chain >= 0 {
			s.index[e.hash] = e.chain
		} else {
			delete(s.index, e.hash)
		}
	} else {
		for p := first; ; p = s.ents[p].chain {
			if s.ents[p].chain == id {
				s.ents[p].chain = e.chain
				break
			}
		}
	}
	s.freeEnts = append(s.freeEnts, id)
	s.live--
	return s.release(e.at)
}

// releaseAll hands back every mapping; the store is empty afterwards.
func (s *slabs) releaseAll() [][]byte {
	var out [][]byte
	for i := range s.chunks {
		if s.chunks[i].mem != nil {
			out = append(out, s.chunks[i].mem)
		}
	}
	*s = *newSlabs()
	return out
}
