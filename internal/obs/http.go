package obs

import (
	"encoding/json"
	"net/http"

	"deepvalidation/internal/trace"
)

// EventsResponse is the body of GET /debug/dv/events. It is a wire
// contract shared by dvserve and dvgateway, which both mount
// HandleEvents and HandleSLO — one triage grammar across the fleet.
type EventsResponse struct {
	Count  int     `json:"count"`
	Events []Event `json:"events"`
}

// ErrorResponse is the uniform error body of every dvserve and
// dvgateway endpoint, so clients parse one shape no matter which tier
// answered.
type ErrorResponse struct {
	Error string `json:"error"`
}

// jsonContentType is the Content-Type value every JSON response
// shares. Assigning it directly, instead of Header().Set, saves the
// []string Set would allocate per response; net/http only reads it.
var jsonContentType = []string{"application/json"}

// SetContentType sets h's Content-Type to v, to the shared
// jsonContentType slice when v is its value.
func SetContentType(h http.Header, v string) {
	if v == jsonContentType[0] {
		h["Content-Type"] = jsonContentType
		return
	}
	h.Set("Content-Type", v)
}

// WriteJSON answers status with body encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError answers status with an ErrorResponse carrying msg.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}

// HandleSLO serves the burn-rate engine's per-objective evaluation. A
// nil engine answers Status{} (enabled false), so the endpoint is
// mounted whether or not the tier runs SLOs.
func HandleSLO(e *Engine, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	WriteJSON(w, http.StatusOK, e.Status())
}

// HandleEvents serves a wide-event ring, newest first, under the shared
// triage filters: the flight recorder's (?valid=, ?class=, ?outcome=,
// ?limit=, parsed by trace.ParseFilter so both endpoints answer the same
// 400s) plus the event-native ?type= and ?level= axes, ?level= checked
// first. A nil logger answers 404 so the disabled path is explicit
// rather than empty.
func HandleEvents(l *Logger, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if l == nil {
		WriteError(w, http.StatusNotFound, "event log disabled (run with -log)")
		return
	}
	q := r.URL.Query()
	f := Filter{Type: q.Get("type")}
	if v := q.Get("level"); v != "" {
		lvl, err := ParseLevel(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad level filter: "+err.Error())
			return
		}
		f.MinLevel = lvl
	}
	tf, err := trace.ParseFilter(q)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.Valid, f.Class, f.Outcome, f.Limit = tf.Valid, tf.Class, tf.Outcome, tf.Limit
	evs := l.Snapshot(f)
	if evs == nil {
		evs = []Event{}
	}
	WriteJSON(w, http.StatusOK, EventsResponse{Count: len(evs), Events: evs})
}
