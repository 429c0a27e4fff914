package lease

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"

	"chipmunk/internal/obs"
)

// maxRequest bounds a lease or heartbeat request body.
const maxRequest = 1 << 20

type wireError struct {
	Error string `json:"error"`
}

// WriteJSON renders a JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = client's problem
}

// WriteError renders a wire rejection: {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, wireError{Error: msg})
}

// Value serves get()'s result as JSON (the handshake spec, the status
// snapshot).
func Value(get func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, get()) }
}

// Call serves a JSON request/response verb (lease, heartbeat): a body that
// does not parse is a 400, an error from fn (a refused identity) a 409.
func Call[Req, Resp any](verb string, fn func(r *http.Request, req Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequest)).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad %s request: %v", verb, err))
			return
		}
		resp, err := fn(r, req)
		if err != nil {
			WriteError(w, http.StatusConflict, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// Results serves result posts. Results are the one message that mutates
// the job, so the wire boundary is paranoid: the body must parse AND match
// its own self-checksum. A truncated or corrupted body gets HTTP 400 and is
// counted as a failed attempt of the unit it claims (Engine.Reject), so the
// unit is re-dispatched, never mis-credited. Workers retry 400s with a
// fresh POST.
func Results[P any, PP interface {
	*P
	Result
}](e *Engine, credit func(PP) (CreditResponse, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxLine))
		if err != nil {
			e.Reject("", -1, "", "truncated result body")
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("truncated result body: %v", err))
			return
		}
		p := PP(new(P))
		if err := json.Unmarshal(data, p); err != nil {
			e.Reject("", -1, "", "corrupt result body")
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad result payload: %v", err))
			return
		}
		if cl, want := p.Claim(), p.Checksum(); cl.Sum == "" || cl.Sum != want {
			cause := fmt.Sprintf("payload checksum mismatch: body carries %q, content hashes to %s", cl.Sum, want)
			e.Reject(cl.Kind, cl.ID, cl.Worker, cause)
			WriteError(w, http.StatusBadRequest, cause)
			return
		}
		resp, err := credit(p)
		if err != nil {
			WriteError(w, http.StatusConflict, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// Metrics serves a metrics snapshot in Prometheus text format: the same
// exposition the engine's -debug-addr listener serves, so one scrape
// config covers local runs and coordinators alike.
func Metrics(snap func() *obs.Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.MetricsContentType)
		snap().WriteMetrics(w)
	}
}

// Dashboard serves tmpl rendered from status() as a page.
func Dashboard(tmpl *template.Template, status func() any, logf func(string, ...any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := tmpl.Execute(w, status()); err != nil && logf != nil {
			// Too late for an HTTP error (the header is out); the next refresh
			// retries anyway.
			logf("dash render: %v", err)
		}
	}
}
