package vinci

import (
	"sync"

	"webfountain/internal/metrics"
)

// TraceIDParam is the reserved request parameter that carries the
// per-request trace ID across Vinci calls. Handlers that fan out to
// further services copy it forward, so one document's trip through the
// platform can be correlated end to end.
const TraceIDParam = "x-trace-id"

// WithTrace returns req with the trace ID attached (no-op for empty id).
func WithTrace(req Request, traceID string) Request {
	if traceID == "" {
		return req
	}
	if req.Params == nil {
		req.Params = map[string]string{}
	}
	req.Params[TraceIDParam] = traceID
	return req
}

// TraceID extracts the trace ID carried by a request ("" when absent).
func (r Request) TraceID() string { return r.Params[TraceIDParam] }

// Traced wraps a client so every outgoing request carries traceID,
// letting typed clients (which build their own requests) participate in
// tracing without threading the ID through each call site.
func Traced(c Client, traceID string) Client { return tracedClient{c: c, id: traceID} }

type tracedClient struct {
	c  Client
	id string
}

func (t tracedClient) Call(req Request) (Response, error) { return t.c.Call(WithTrace(req, t.id)) }
func (t tracedClient) Close() error                       { return t.c.Close() }

// Per-method metric handles, resolved once per service.op and cached:
// the registry lookup takes a lock, the cached handle is lock-free.
type methodMetrics struct {
	calls   *metrics.Counter
	errors  *metrics.Counter
	latency *metrics.Histogram
}

var (
	serverMethods sync.Map // "svc.op" -> *methodMetrics
	clientMethods sync.Map // "svc.op" -> *methodMetrics
)

func methodFor(cache *sync.Map, prefix, service, op string) *methodMetrics {
	key := service + "." + op
	if m, ok := cache.Load(key); ok {
		return m.(*methodMetrics)
	}
	reg := metrics.Default()
	m := &methodMetrics{
		calls:   reg.Counter(prefix + key + ".calls"),
		errors:  reg.Counter(prefix + key + ".errors"),
		latency: reg.Histogram(prefix + key + ".ns"),
	}
	actual, _ := cache.LoadOrStore(key, m)
	return actual.(*methodMetrics)
}

func serverMethod(service, op string) *methodMetrics {
	return methodFor(&serverMethods, "vinci.server.", service, op)
}

func clientMethod(service, op string) *methodMetrics {
	return methodFor(&clientMethods, "vinci.client.", service, op)
}

// Deadline counters (DESIGN.md §10): calls that died with a spent
// budget on the client, and requests rejected before dispatch because
// they arrived with no budget left.
var (
	clientExpired = metrics.Default().Counter("vinci.client.expired")
	serverExpired = metrics.Default().Counter("vinci.server.expired")
)
