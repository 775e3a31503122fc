package server

// The v1 error wire contract (PR 10). Every non-2xx response carries
// one JSON shape:
//
//	{"error": {"class": "...", "message": "...", "retry_after_ms": 1500}}
//
// with class drawn from the library's error contract, so an HTTP
// caller classifies failures exactly the way an in-process caller
// classifies the facade's sentinel errors:
//
//	invalid_config  the request itself is wrong (cfgerr.ErrInvalid):
//	                malformed JSON, unknown fields, a validation
//	                failure, or a body past the size limit. 400/413.
//	queue_full      the server cannot take the work right now and the
//	                caller should retry after retry_after_ms: intake
//	                queue full, admission shed, concurrency cap,
//	                breaker open, shutdown in progress. 429/503.
//	saturated       the model has no steady state at the requested
//	                operating point (model.ErrSaturated) — retrying
//	                the same request cannot succeed. 422.
//	unreachable     the addressed thing does not exist: an unknown
//	                job id, or traffic addressed to a node a fault
//	                plan stranded (routing.UnreachableError). 404/422.
//	timeout         the work ran out of time budget. 504.
//	read_only       the node's journal hit ENOSPC and async work
//	                cannot be durably acknowledged until disk space
//	                returns; sync routes still serve. Retry after
//	                retry_after_ms (space recovery is probed on every
//	                rejected submit). 503. (PR 12)
//	internal        everything else. 500.
//
// retry_after_ms is present only on queue_full responses (mirroring
// the Retry-After header, at millisecond resolution).

import (
	"net/http"
	"time"
)

const (
	classInvalidConfig = "invalid_config"
	classQueueFull     = "queue_full"
	classSaturated     = "saturated"
	classUnreachable   = "unreachable"
	classTimeout       = "timeout"
	classReadOnly      = "read_only"
	classInternal      = "internal"
)

// wireError is the inner object of the v1 error envelope.
type wireError struct {
	Class        string `json:"class"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// errorBody is the v1 error envelope: one nested object, so the
// top-level "error" key can never collide with a success field and
// future additions (a trace id, a doc link) extend the inner object
// without breaking decoders.
type errorBody struct {
	Error wireError `json:"error"`
}

// noRetry marks an error response that must not advertise a retry
// hint — retrying an invalid_config or saturated request cannot
// succeed.
const noRetry time.Duration = -1

// writeError emits one non-2xx response in the v1 envelope. A
// non-negative retryAfter sets the Retry-After header (whole seconds,
// minimum 1 — setRetryAfter) and the envelope's retry_after_ms
// (minimum 1 ms).
func (s *Server) writeError(w http.ResponseWriter, status int, class, message string, retryAfter time.Duration) {
	if retryAfter >= 0 {
		setRetryAfter(w, retryAfter)
	}
	body := errorBody{Error: wireError{Class: class, Message: message}}
	if retryAfter >= 0 {
		ms := retryAfter.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		body.Error.RetryAfterMS = ms
	}
	s.writeJSON(w, status, body)
}
