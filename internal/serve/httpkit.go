package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"compactsg/internal/obs"
	"compactsg/internal/serve/metrics"
)

// The HTTP toolkit shared by sgserve and sgproxy: the status-carrying
// error, the instrumentation wrapper, the pooled body reader, the
// strict JSON decoder and the JSON evaluation request shapes. Both
// processes answer malformed requests through the same code, so a
// request fails the same way whether it reaches a shard directly or
// through the proxy.

// StatusError is a handler error that carries the HTTP status it is
// answered with.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

// Errorf builds a StatusError.
func Errorf(status int, format string, args ...any) *StatusError {
	return &StatusError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// ErrorResponse is the JSON body of every error answer, for both wire
// protocols.
type ErrorResponse struct {
	Error string `json:"error"`
}

// EvalRequest is the JSON body of POST /v1/eval.
type EvalRequest struct {
	Grid  string    `json:"grid"`
	Point []float64 `json:"point"`
}

// EvalResponse is the JSON answer to POST /v1/eval.
type EvalResponse struct {
	Value float64 `json:"value"`
}

// BatchRequest is the JSON body of POST /v1/eval/batch.
type BatchRequest struct {
	Grid   string      `json:"grid"`
	Points [][]float64 `json:"points"`
}

// BatchResponse is the JSON answer to POST /v1/eval/batch.
type BatchResponse struct {
	Values []float64 `json:"values"`
}

// Instrument wraps handlers with request counting (by handler and wire
// protocol), latency observation, error accounting, panic recovery,
// the trace span lifecycle and request-ID stamping. A wrapped handler
// writes its own success response (and sets the span's status and
// encode stage); an error it returns is answered as an ErrorResponse
// with the status Status maps it to.
//
// Panics must be caught here, not left to net/http: the http.Server
// recovery aborts the connection without writing a response, so the
// client would see a dropped connection, no error would be counted and
// the request's latency would never be observed.
type Instrument struct {
	Tracer   *obs.Tracer
	Requests *metrics.CounterVec   // labels: handler, protocol
	Errors   *metrics.CounterVec   // labels: handler
	Latency  *metrics.HistogramVec // labels: handler
	Panics   *metrics.Counter
	ErrorLog *slog.Logger
	// Status maps a handler error to its HTTP status.
	Status func(error) int
	// Finish, when non-nil, runs once per request, panic or not, after
	// the answer is written and before the span is recycled.
	Finish func(ctx context.Context, sp *obs.Span, handler string, status int, total time.Duration)
	// OnWriteError, when non-nil, is told about a response body that
	// failed mid-write (client gone, connection reset).
	OnWriteError func(protocol string, status int, err error)
}

// Wrap instruments h as the named handler speaking protocol.
func (in *Instrument) Wrap(handler, protocol string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	reqs := in.Requests.With(handler, protocol)
	errs := in.Errors.With(handler)
	lat := in.Latency.With(handler)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		sp := in.Tracer.Start(handler)
		if sp != nil {
			// The middleware chain may already have stamped a
			// (proxy-propagated) request ID; keep it if so.
			if w.Header().Get("X-Request-Id") == "" {
				w.Header().Set("X-Request-Id", strconv.FormatUint(sp.ID(), 10))
			}
			// Record the inbound request ID too, so a proxied request is
			// findable in every hop's /debug/traces under the ID the
			// client or the proxy sent (a shard believes it only from a
			// trusted proxy; its middleware replaces it otherwise).
			sp.SetExtID(r.Header.Get("X-Request-Id"))
			r = r.WithContext(obs.NewContext(r.Context(), sp))
		}
		status := http.StatusOK
		defer func() {
			if p := recover(); p != nil {
				status = http.StatusInternalServerError
				errs.Inc()
				in.Panics.Inc()
				in.ErrorLog.LogAttrs(r.Context(), slog.LevelError, "handler panic",
					slog.String("handler", handler),
					slog.Uint64("request_id", sp.ID()),
					slog.String("panic", fmt.Sprint(p)),
					slog.String("stack", string(debug.Stack())))
				sp.SetStatus(status)
				in.WriteJSON(w, status, ErrorResponse{Error: "internal server error"})
			}
			total := time.Since(start)
			lat.Observe(total.Seconds())
			if in.Finish != nil {
				in.Finish(r.Context(), sp, handler, status, total)
			}
			sp.Finish()
		}()
		if err := h(w, r); err != nil {
			errs.Inc()
			status = in.Status(err)
			sp.SetError(err)
			sp.SetStatus(status)
			in.WriteJSON(w, status, ErrorResponse{Error: err.Error()})
		}
	}
}

// WriteJSON renders a JSON response body. Encoder errors after
// WriteHeader mean the client received a truncated body under an
// already-committed (often 200) status — invisible in the status-code
// metrics, so they go to OnWriteError.
func (in *Instrument) WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil && in.OnWriteError != nil {
		in.OnWriteError("json", status, err)
	}
}

// ReadBody reads r to the end into buf[:0], growing it only when the
// body outgrows its capacity, so a pooled buffer makes the steady-state
// read allocation-free (io.ReadAll would grow a fresh buffer every
// call). Read failures come back as StatusErrors: 413 past an
// http.MaxBytesReader cap, 400 otherwise.
func ReadBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), 2*cap(buf))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, bodyError(err, "reading request body: %v")
		}
	}
}

// bodyError maps a failed body read or decode to its StatusError.
func bodyError(err error, format string) error {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
	}
	return Errorf(http.StatusBadRequest, format, err)
}

// DecodeJSON decodes r's body, capped at limit bytes, into dst. The
// body must hold exactly one JSON value with no fields dst does not
// know: an empty body, an unknown field and trailing data after the
// value (`{"point":[0.5]}junk`) are all 400s — a decoder left to its
// own devices stops at the end of the first value and would silently
// accept the garbage. A body over the cap is a 413.
func DecodeJSON(r *http.Request, limit int64, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if errors.Is(err, io.EOF) {
			return Errorf(http.StatusBadRequest, "empty request body")
		}
		return bodyError(err, "invalid JSON request: %v")
	}
	if _, err := dec.Token(); err != io.EOF {
		if errors.As(err, new(*http.MaxBytesError)) {
			return bodyError(err, "%v") // a value padded past the cap
		}
		return Errorf(http.StatusBadRequest, "request body contains data after the JSON value")
	}
	return nil
}

// DecodeEval strictly decodes a POST /v1/eval body (batch false) or a
// POST /v1/eval/batch body into its grid name and points. Beyond
// DecodeJSON's rules it rejects what a binary frame cannot carry
// faithfully — a ragged batch, points without coordinates, a grid name
// over 256 bytes — so a request a proxy re-frames for its shard fails
// exactly as it would have failed there directly.
func DecodeEval(r *http.Request, limit int64, batch bool) (grid string, pts [][]float64, err error) {
	if batch {
		var req BatchRequest
		err = DecodeJSON(r, limit, &req)
		grid, pts = req.Grid, req.Points
	} else {
		var req EvalRequest
		err = DecodeJSON(r, limit, &req)
		grid, pts = req.Grid, [][]float64{req.Point}
	}
	if err != nil {
		return "", nil, err
	}
	if len(grid) > binMaxName {
		return "", nil, Errorf(http.StatusBadRequest, "grid name exceeds %d bytes", binMaxName)
	}
	for k, x := range pts {
		if len(x) == 0 {
			return "", nil, Errorf(http.StatusBadRequest, "point %d has no coordinates", k)
		}
		if len(x) != len(pts[0]) {
			return "", nil, Errorf(http.StatusBadRequest,
				"point %d has %d coordinates, point 0 has %d", k, len(x), len(pts[0]))
		}
	}
	return grid, pts, nil
}
