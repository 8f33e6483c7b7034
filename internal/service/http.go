package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// maxSpecBytes bounds submission bodies; a spec is a small JSON
// document and anything larger is a client error, not a buffering job.
const maxSpecBytes = 1 << 20

// Health is the document served by /healthz: readiness, the counter
// snapshot, and every job including live guard exports for running
// simulations.
type Health struct {
	Status string   `json:"status"` // "ok" or "draining"
	Stats  Stats    `json:"stats"`
	Jobs   []Status `json:"jobs"`
}

// Health assembles the health document.
func (s *Server) Health() Health {
	h := Health{Status: "ok", Stats: s.Stats(), Jobs: s.Jobs()}
	if h.Stats.Draining {
		h.Status = "draining"
	}
	return h
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs             submit (X-Tenant header scopes caps)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result document (200 only when done)
//	GET    /v1/jobs/{id}/events SSE progress/lifecycle stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/stats            counter snapshot
//	GET    /healthz             full health document
//	GET    /readyz              200 while admitting, 503 while draining
//	GET    /livez               200 while the process serves
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is committed; nothing left to do
}

// retryAfter is the Retry-After hint, in seconds, handed to rejected
// clients.
const retryAfter = "1"

// subscriberBuffer is the per-SSE-subscriber event buffer: a reader that
// falls further behind loses progress granularity and, if it stalls
// outright, the stream.
const subscriberBuffer = 128

// submitResponse is the body of a successful submission.
type submitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	Deduped     bool   `json:"deduped,omitempty"`
	CacheHit    bool   `json:"cacheHit,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	out, err := s.Submit(spec, r.Header.Get("X-Tenant"))
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantLimit):
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:          out.Job.ID,
		Fingerprint: out.Job.Fingerprint,
		State:       out.Job.State(),
		Deduped:     out.Deduped,
		CacheHit:    out.CacheHit,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: ErrUnknownJob.Error()})
	}
	return job, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobOr404(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if doc, ok := job.Result(); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(doc)
		return
	}
	st := job.Status()
	code := http.StatusNotFound // not done yet: queued/running/interrupted
	if st.State == StateFailed || st.State == StateCanceled {
		code = http.StatusConflict // will never be done
	}
	writeJSON(w, code, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(job.ID); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleEvents streams the job's events as SSE. The subscription buffer
// is bounded: a client that cannot keep up first loses progress
// granularity (conflation) and, if it stalls outright, the stream —
// the simulation never waits for a socket.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "streaming unsupported"})
		return
	}
	sub := job.Subscribe(subscriberBuffer)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Open with the current status so late subscribers see state at all.
	st := job.Status()
	writeSSE(w, Event{Type: EventState, JobID: job.ID, State: st.State, Error: st.Error})
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.C:
			if !open {
				return
			}
			writeSSE(w, ev)
			flusher.Flush()
		}
	}
}

func writeSSE(w io.Writer, ev Event) {
	blob, err := json.Marshal(&ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, blob)
}
