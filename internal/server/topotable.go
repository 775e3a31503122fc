package server

import (
	"container/list"
	"sync"

	"starperf/internal/model"
	"starperf/internal/topology"
)

// topoBudget bounds the bytes a Server's topology table retains. A
// topology larger than a quarter of it (a star graph with n ≥ 9) is
// built per request and never retained, so one huge topology cannot
// flush the others.
const topoBudget = 32 << 20

// topoEntry is one interned topology.
type topoEntry struct {
	spec  TopoSpec
	top   topology.Topology
	bytes int64
}

// topoTable interns the topologies predict and bounds requests
// evaluate against: a byte-bounded LRU keyed by TopoSpec. Every
// topology is read-only after construction, so concurrent requests
// share them freely. The model's path structures need no table:
// model.NewStarPaths shares one instance per n and model.NewTorusPaths
// one per (k, n); hypercube paths are closed-form and built per
// request.
type topoTable struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values *topoEntry
	index  map[TopoSpec]*list.Element
}

func newTopoTable(budget int64) *topoTable {
	return &topoTable{budget: budget, ll: list.New(), index: make(map[TopoSpec]*list.Element)}
}

// footprinter is implemented by topologies with sizeable per-node
// tables (star graphs).
type footprinter interface{ Footprint() int64 }

// entryOverhead is the fixed cost charged per entry: the entry, its
// list element and index slot, and the closed-form topologies.
const entryOverhead = 256

// topology returns spec's topology, building it outside the lock on a
// miss. Two concurrent misses of one spec both build; the first to
// insert wins and the other's copy is dropped. Build errors are not
// retained.
func (t *topoTable) topology(spec TopoSpec) (topology.Topology, error) {
	t.mu.Lock()
	if el, ok := t.index[spec]; ok {
		t.ll.MoveToFront(el)
		t.mu.Unlock()
		return el.Value.(*topoEntry).top, nil
	}
	t.mu.Unlock()
	top, err := spec.build()
	if err != nil {
		return nil, err
	}
	e := &topoEntry{spec: spec, top: top, bytes: entryOverhead}
	if f, ok := top.(footprinter); ok {
		e.bytes += f.Footprint()
	}
	if e.bytes > t.budget/4 {
		return top, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.index[spec]; ok {
		t.ll.MoveToFront(el)
		return el.Value.(*topoEntry).top, nil
	}
	t.index[spec] = t.ll.PushFront(e)
	t.bytes += e.bytes
	for t.bytes > t.budget {
		back := t.ll.Back()
		old := back.Value.(*topoEntry)
		t.ll.Remove(back)
		delete(t.index, old.spec)
		t.bytes -= old.bytes
	}
	return top, nil
}

// modelInputs returns the topology and model path structure a
// /v1/predict request for spec evaluates against.
func (t *topoTable) modelInputs(spec TopoSpec) (topology.Topology, model.PathStructure, error) {
	top, err := t.topology(spec)
	if err != nil {
		return nil, nil, err
	}
	paths, err := spec.paths()
	if err != nil {
		return nil, nil, err
	}
	return top, paths, nil
}

// ModelInputs is the per-request structure lookup of /v1/predict,
// exported only so cmd/starbench's predict suite can time it; request
// handling goes through the table directly.
func (s *Server) ModelInputs(spec TopoSpec) (topology.Topology, model.PathStructure, error) {
	return s.topos.modelInputs(spec)
}
