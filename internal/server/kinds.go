package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"

	"starperf/internal/cfgerr"
	"starperf/internal/jobs"
)

// The job-kind table. Every compute kind starperfd serves is one row
// here, and the row is the only place the kind is named: the route
// it mounts on, the hash domain of its content ids, the Kind its
// journal records carry, the per-kind execution mean admission prices
// it at, and the "kind" a batch item or a journaled record selects it
// by all come from the row. The HTTP route, a batch item and a
// journal replay then run the same typed step (prepare) and differ
// only in how they decode the body.

// jobKind is one row of the table.
type jobKind struct {
	name  string
	route string // mux pattern, breaker key and /metricsz route name
	// sync kinds answer inline with the result bytes; the others
	// answer with a job id the caller polls on GET /v1/jobs/{id}.
	sync bool
	// prepare decodes raw into the kind's request type, normalises
	// its defaults, validates it and binds the job it names.
	prepare func(s *Server, raw []byte, decode decodeFunc) (job, error)
}

// kinds is the table.
var kinds = []*jobKind{
	newKind[PredictRequest]("predict", "/v1/predict", true),
	newKind[BoundsRequest]("bounds", "/v1/bounds", true),
	newKind[SimulateRequest]("simulate", "/v1/simulate", false),
	newKind[SweepRequest]("sweep", "/v1/sweep", false),
}

// kindNamed indexes the table by kind name; kindNames lists the names
// for error messages.
var kindNamed, kindNames = indexKinds()

func indexKinds() (map[string]*jobKind, string) {
	byName := make(map[string]*jobKind, len(kinds))
	names := make([]string, 0, len(kinds))
	for _, k := range kinds {
		byName[k.name] = k
		names = append(names, k.name)
	}
	sort.Strings(names)
	last := len(names) - 1
	return byName, strings.Join(names[:last], ", ") + " or " + names[last]
}

// job is a prepared request: its content id, the journal meta a
// restart rebuilds it from, and the request itself.
type job struct {
	id   string
	meta jobs.Meta
	req  runner
}

// runner computes a validated request's result.
type runner interface {
	run(*topoTable) (any, error)
}

// request is what a kind's wire type provides. withDefaults runs
// before hashing, so an explicit default and an omitted one are the
// same job.
type request[R any] interface {
	runner
	withDefaults() R
	validate(*topoTable) error
}

// newKind builds the row for request type R.
func newKind[R request[R]](name, route string, sync bool) *jobKind {
	k := &jobKind{name: name, route: route, sync: sync}
	k.prepare = func(s *Server, raw []byte, decode decodeFunc) (job, error) {
		var req R
		if err := decode(raw, &req); err != nil {
			return job{}, err
		}
		req = req.withDefaults()
		if err := req.validate(s.topos); err != nil {
			return job{}, err
		}
		// One interface value serves both bind and the job, so a
		// cache hit boxes the request once.
		var run runner = req
		id, meta, err := k.bind(run)
		if err != nil {
			return job{}, err
		}
		return job{id: id, meta: meta, req: run}, nil
	}
	return k
}

// bind canonicalises a defaulted request once into both its content
// id (jobs.Hash) and its journal meta, so the journal and the cache
// agree on what the job is.
func (k *jobKind) bind(req any) (string, jobs.Meta, error) {
	canon, err := jobs.CanonicalJSON(req)
	if err != nil {
		return "", jobs.Meta{}, err
	}
	return jobs.HashCanonical(k.name, canon), jobs.Meta{Kind: k.name, Req: canon}, nil
}

// decodeFunc parses a body into a request value.
type decodeFunc func(raw []byte, v any) error

// The strict decoders of the routes and of batch items. Unknown
// fields are errors, because a silently dropped typo would mint a
// fresh cache key for a request the caller never meant to make.
// Journal replay decodes leniently with json.Unmarshal instead: its
// bodies are canonical encodings this server wrote.
var (
	decodeRequest = strictDecoder("malformed request: ")
	decodeConfig  = strictDecoder("malformed config: ")
)

// strictDecoder returns a strict decoder whose failures are
// configuration errors carrying prefix.
func strictDecoder(prefix string) decodeFunc {
	return func(raw []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return cfgerr.New(prefix + err.Error())
		}
		return nil
	}
}

// handleKind serves k's POST route. The cache answers first: with the
// stored bytes for a sync kind, with a done job for an async one. A
// miss goes to the id's ring owner when that is a peer; otherwise a
// sync kind is evaluated on the pool (deduplicated against concurrent
// identical requests) and answered with the bytes it stored, and an
// async kind is submitted for polling.
func (s *Server) handleKind(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, ok := s.readBody(w, r)
		if !ok {
			return
		}
		j, err := k.prepare(s, raw, decodeRequest)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		if k.sync {
			if body, ok := s.cache.Get(j.id); ok {
				s.writeResult(w, j.id, "hit", body)
				return
			}
		} else if s.cache.Contains(j.id) {
			s.writeJSON(w, http.StatusOK, jobBody{ID: j.id, Status: jobs.StatusDone})
			return
		}
		if s.clusterRoute(w, r, j.id, raw, k.sync) {
			return
		}
		fn := s.runAndStore(j.id, j.req)
		if !k.sync {
			s.submitAsync(w, j.id, j.meta, fn)
			return
		}
		v, err := s.pool.DoMeta(r.Context(), j.id, j.meta, fn)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		s.writeResult(w, j.id, "miss", v.([]byte))
	}
}
