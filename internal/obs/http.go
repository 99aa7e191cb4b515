package obs

import (
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics is the standard per-route HTTP instrumentation set.
type HTTPMetrics struct {
	// InFlight counts requests currently being served.
	InFlight *Gauge

	requests *CounterVec   // route, method, code class
	duration *HistogramVec // route
	bytes    *CounterVec   // route
}

// NewHTTPMetrics registers the wm_http_* families on r.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		InFlight: r.Gauge("wm_http_in_flight_requests",
			"Requests currently being served."),
		requests: r.CounterVec("wm_http_requests_total",
			"HTTP requests served, by route pattern, method, and status class.",
			"route", "method", "code"),
		duration: r.HistogramVec("wm_http_request_duration_seconds",
			"HTTP request latency by route pattern.", DefBuckets, "route"),
		bytes: r.CounterVec("wm_http_response_bytes_total",
			"Response body bytes written (including streamed CSV), by route pattern.",
			"route"),
	}
}

// Observe records one completed request.
func (m *HTTPMetrics) Observe(route, method string, status int, d time.Duration, bytes int64) {
	m.requests.With(route, method, StatusClass(status)).Inc()
	m.duration.With(route).Observe(d.Seconds())
	if bytes > 0 {
		m.bytes.With(route).Add(uint64(bytes))
	}
}

// StatusClass collapses an HTTP status code to its class ("2xx" … "5xx")
// to keep label cardinality bounded.
func StatusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// ResponseRecorder wraps a ResponseWriter to capture the status code
// and bytes written, passing Flush through for streaming handlers.
type ResponseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *ResponseRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *ResponseRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Status returns the response status, defaulting to 200 if the handler
// never wrote anything explicit.
func (r *ResponseRecorder) Status() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

// Bytes returns the number of response body bytes written so far.
func (r *ResponseRecorder) Bytes() int64 { return r.bytes }

func (r *ResponseRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
