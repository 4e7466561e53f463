package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"gpuperf/internal/power"
)

// expositionContentType is the Prometheus text format version the
// exposition writer emits.
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler builds the daemon's HTTP API. Every route reads server state;
// none of them writes to the metrics registry — handles are registered
// once in New/collector.New, and /metrics renders a consistent snapshot,
// so scrapes are safe concurrently with running campaigns.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/triage", s.handleTriage)
	mux.HandleFunc("GET /api/v1/power", s.handlePower)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Snapshot first: the render then happens lock-free on a consistent
	// copy, byte-identical to the artifact writer for the same state.
	snap := s.rec.Metrics().Snapshot()
	w.Header().Set("Content-Type", expositionContentType)
	if err := snap.WriteText(w); err != nil {
		// Headers are gone; all we can do is drop the connection early.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone mid-body; nothing to recover
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxRequestBytes bounds a campaign request body. A request is a few
// hundred bytes of JSON; a larger body is refused with 413 before it is
// buffered.
const maxRequestBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	c, err := s.Submit(req)
	if err != nil {
		var re *RequestError
		switch {
		case errors.As(err, &re):
			writeError(w, http.StatusBadRequest, re.Error())
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusCreated, c.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Campaigns())
}

// campaignFor resolves the {id} path value, writing the 404 itself.
func (s *Server) campaignFor(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	c, ok := s.Campaign(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign "+r.PathValue("id"))
	}
	return c, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.campaignFor(w, r); ok {
		writeJSON(w, http.StatusOK, c.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	c.Cancel()
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	text, ok := c.Report()
	if !ok {
		writeError(w, http.StatusConflict, "campaign "+c.id+" is "+c.Status().State+", report available when completed")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

func (s *Server) handleTriage(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	trep, ok := c.Triage()
	if !ok {
		writeError(w, http.StatusConflict, "campaign "+c.id+" has no triage report yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trep.WriteJSON(w); err != nil {
		return // client gone mid-body
	}
}

// devicePower is one device's entry in the GET /api/v1/power response.
type devicePower struct {
	Device string                    `json:"device"`
	Idle   map[power.Scope]float64   `json:"idle_watts"`
	Recent map[power.Scope][]float64 `json:"recent_watts"`
}

func (s *Server) handlePower(w http.ResponseWriter, _ *http.Request) {
	out := make([]devicePower, 0, len(s.cfg.Boards))
	for _, name := range s.col.Devices() {
		idle := s.col.Idle(name)
		dp := devicePower{
			Device: name,
			Idle:   make(map[power.Scope]float64, 3),
			Recent: make(map[power.Scope][]float64, 3),
		}
		for _, sc := range power.Scopes() {
			dp.Idle[sc] = idle.Scope(sc)
			dp.Recent[sc] = s.col.Recent(name, sc)
		}
		out = append(out, dp)
	}
	writeJSON(w, http.StatusOK, out)
}
