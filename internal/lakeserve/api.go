// The versioned HTTP surface: every route lives under /api/v1 and
// nowhere else, every 4xx/5xx response carries one error envelope, and
// POST /api/v1/query exposes the composable query engine the canned
// endpoints are built on.
package lakeserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"btpub/internal/query"
)

// APIPrefix is the versioned mount point.
const APIPrefix = "/api/v1"

// maxCount bounds the n= and limit= GET parameters.
const maxCount = 100_000

// maxQueryBody bounds a POST /api/v1/query body.
const maxQueryBody = 1 << 20

// ErrorBody is the envelope every non-2xx response carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload: a stable machine-readable code
// plus a human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is an error that knows its HTTP rendering.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.message) }

func paramErr(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_param", message: fmt.Sprintf(format, args...)}
}

// writeError renders the envelope with the JSON content type.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}

// fail maps an error to its envelope: parameter and query errors are
// the client's fault (400), a blown request deadline is 503 "timeout"
// (retryable), everything else is ours (500).
func fail(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.status, ae.code, ae.message)
		return
	}
	var qe *query.Error
	if errors.As(err, &qe) {
		writeError(w, http.StatusBadRequest, qe.Code, qe.Message)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, "timeout", "request timed out; retry shortly")
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", err.Error())
}

// ---------------------------------------------------------------------
// Bounds-checked GET parameters
// ---------------------------------------------------------------------

// params wraps the URL query with the one bounds-checked accessor set
// every handler shares — the per-handler strconv/split copies (which
// silently swallowed bad input) are gone.
type params struct {
	v url.Values
}

func reqParams(r *http.Request) params { return params{v: r.URL.Query()} }

// count parses a positive row-count parameter. Absent uses def; zero,
// negative, non-numeric or absurd values are 400s, not silent fallbacks.
func (p params) count(name string, def int) (int, error) {
	raw := p.v.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, paramErr("%s=%q is not an integer", name, raw)
	}
	if n <= 0 {
		return 0, paramErr("%s must be positive (got %d)", name, n)
	}
	if n > maxCount {
		return 0, paramErr("%s=%d exceeds the maximum %d", name, n, maxCount)
	}
	return n, nil
}

// format resolves the format= parameter to "text" or "json".
func (p params) format() (string, error) {
	switch f := p.v.Get("format"); f {
	case "", "text":
		return "text", nil
	case "json":
		return "json", nil
	default:
		return "", paramErr("format=%q is not supported (use \"text\" or \"json\")", f)
	}
}

// version parses a journal-version cursor parameter; absent means 0
// (from the beginning).
func (p params) version(name string) (uint64, error) {
	raw := p.v.Get(name)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, paramErr("%s=%q is not a version number", name, raw)
	}
	return n, nil
}

// duration parses a bounded Go duration parameter; absent means 0.
func (p params) duration(name string, max time.Duration) (time.Duration, error) {
	raw := p.v.Get(name)
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, paramErr("%s=%q is not a duration (try \"30s\")", name, raw)
	}
	if d <= 0 {
		return 0, paramErr("%s must be positive (got %s)", name, d)
	}
	if d > max {
		return 0, paramErr("%s=%s exceeds the maximum %s", name, d, max)
	}
	return d, nil
}

// list parses a comma-separated parameter, rejecting empty elements.
func (p params) list(name string) ([]string, error) {
	raw := p.v.Get(name)
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	for _, s := range parts {
		if s == "" {
			return nil, paramErr("%s=%q contains an empty element", name, raw)
		}
	}
	return parts, nil
}

// ---------------------------------------------------------------------
// Route table
// ---------------------------------------------------------------------

// Handler builds the route table: every endpoint under /api/v1, wrapped
// so even the mux's own 404/405 responses wear the error envelope. API
// routes sit behind the per-request timeout and
// the admission bound (timeout outermost, so a slot is held until the
// abandoned handler actually finishes); /healthz and /readyz bypass
// both — an overloaded server must still answer its probes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+APIPrefix+"/query", s.handleQuery)
	mux.HandleFunc("GET "+APIPrefix+"/stats", s.handleStats)
	mux.HandleFunc("GET "+APIPrefix+"/alerts", s.handleAlerts)
	mux.HandleFunc("GET "+APIPrefix+"/tables/1", s.handleTable1)
	mux.HandleFunc("GET "+APIPrefix+"/tables/2", s.handleTable2)
	mux.HandleFunc("GET "+APIPrefix+"/tables/3", s.handleTable3)
	mux.HandleFunc("GET "+APIPrefix+"/top-publishers", s.handleTopPublishers)
	mux.HandleFunc("GET "+APIPrefix+"/publishers/classified", s.handleClassified)
	mux.HandleFunc("GET "+APIPrefix+"/publishers/{name}", s.handlePublisher)
	mux.HandleFunc("GET "+APIPrefix+"/fakes", s.handleFakes)
	mux.HandleFunc("GET "+APIPrefix+"/torrents/recent", s.handleRecent)
	mux.HandleFunc("GET "+APIPrefix+"/torrents/{id}/observations", s.handleObservations)

	root := http.NewServeMux()
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)
	root.Handle("/", s.withTimeout(s.admit(mux)))
	return envelopeMiddleware(root)
}

// envelopeMiddleware rewrites bare non-JSON error bodies into the error
// envelope: the mux's own plain-text 404/405, and http.TimeoutHandler's
// empty 503 (which becomes the "timeout" envelope with Retry-After).
// Handler-written errors pass through: they set the JSON content type
// before writing the header.
func envelopeMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	wroteHeader bool
	swallow     bool // original body replaced by an envelope
}

func (w *envelopeWriter) WriteHeader(code int) {
	if w.wroteHeader {
		w.ResponseWriter.WriteHeader(code)
		return
	}
	w.wroteHeader = true
	ct := w.Header().Get("Content-Type")
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(ct, "application/json") {
		w.swallow = true
		codeStr := "not_found"
		msg := "no such route"
		if code == http.StatusMethodNotAllowed {
			codeStr, msg = "method_not_allowed", "method not allowed for this route"
		}
		writeError(w.ResponseWriter, code, codeStr, msg)
		return
	}
	if code == http.StatusServiceUnavailable && !strings.HasPrefix(ct, "application/json") {
		w.swallow = true
		w.Header().Set("Retry-After", retryAfter)
		writeError(w.ResponseWriter, code, "timeout", "request timed out; retry shortly")
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.swallow {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// ---------------------------------------------------------------------
// The query endpoint
// ---------------------------------------------------------------------

// execQuery returns the lake-backed executor.
func (s *Server) execQuery() (*query.Lake, error) {
	s.setup()
	return s.exec, s.execErr
}

// handleQuery is POST /api/v1/query: one JSON Query in, one JSON Result
// out, straight through the lake executor's zone-map pushdown.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
	if err != nil {
		fail(w, fmt.Errorf("reading request body: %w", err))
		return
	}
	if len(body) > maxQueryBody {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("query body exceeds %d bytes", maxQueryBody))
		return
	}
	q, err := query.Decode(body)
	if err != nil {
		fail(w, err)
		return
	}
	ex, err := s.execQuery()
	if err != nil {
		fail(w, err)
		return
	}
	res, err := ex.Execute(r.Context(), *q)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, res)
}
