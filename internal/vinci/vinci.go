// Package vinci implements a lightweight, Web-service style communication
// protocol in the spirit of Vinci, the SOAP derivative WebFountain nodes
// use to talk to each other.
//
// A request names a service and an operation and carries string
// parameters; a response carries result fields or an error. On the wire,
// requests and responses are XML documents framed with a 4-byte big-endian
// length prefix. Two transports are provided: an in-process client for
// single-binary deployments and tests, and a TCP transport for running
// miners against a store on another process.
package vinci

import (
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// MaxFrameSize bounds a single request or response frame (16 MiB).
const MaxFrameSize = 16 << 20

// Request is one service invocation.
type Request struct {
	// Service is the registered service name ("store", "indexer", ...).
	Service string
	// Op is the operation within the service ("get", "put", "query", ...).
	Op string
	// Params carries the operation's arguments.
	Params map[string]string

	// deadline is the absolute deadline the dispatcher computed from the
	// DeadlineParam budget; it never travels on the wire (the budget
	// does, so clock skew between nodes cannot corrupt it).
	deadline time.Time
}

// Param returns a parameter value ("" when absent).
func (r Request) Param(name string) string { return r.Params[name] }

// Response is a service result.
type Response struct {
	// OK reports success; when false, Error describes the failure.
	OK bool
	// Code classifies machine-actionable failures (CodeDeadlineExceeded);
	// empty for success and free-text errors.
	Code string
	// Error is the failure description for !OK responses.
	Error string
	// Fields carries result values.
	Fields map[string]string
}

// Errorf builds a failed response.
func Errorf(format string, args ...any) Response {
	return Response{OK: false, Error: fmt.Sprintf(format, args...)}
}

// OKResponse builds a successful response with the given fields.
func OKResponse(fields map[string]string) Response {
	if fields == nil {
		fields = map[string]string{}
	}
	return Response{OK: true, Fields: fields}
}

// Handler processes one request.
type Handler func(Request) Response

// Registry maps service names to handlers; safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	services map[string]Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string]Handler)}
}

// Register installs (or replaces) the handler for a service.
func (rg *Registry) Register(service string, h Handler) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.services[service] = h
}

// Services returns the registered service names, sorted.
func (rg *Registry) Services() []string {
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	out := make([]string, 0, len(rg.services))
	for s := range rg.services {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Dispatch routes a request to its service handler. A panicking handler
// is recovered and reported as an error response, so one bad handler
// cannot take down the node serving it. A request whose deadline budget
// is already spent is rejected with CodeDeadlineExceeded before the
// handler runs — executing work the caller has abandoned only deepens
// an overload; requests with budget left carry an absolute deadline the
// handler can read via Request.Deadline to abort long scans mid-work.
func (rg *Registry) Dispatch(req Request) (resp Response) {
	rg.mu.RLock()
	h, ok := rg.services[req.Service]
	rg.mu.RUnlock()
	if !ok {
		return Errorf("vinci: unknown service %q", req.Service)
	}
	if budget, ok := req.DeadlineBudget(); ok {
		if budget <= 0 {
			serverExpired.Inc()
			return DeadlineExceededResponse(req.Service + "." + req.Op + " arrived with no budget left")
		}
		req.deadline = time.Now().Add(budget)
	}
	mm := serverMethod(req.Service, req.Op)
	mm.calls.Inc()
	span := mm.latency.Start()
	defer func() {
		if r := recover(); r != nil {
			resp = Errorf("vinci: %s.%s panicked: %v", req.Service, req.Op, r)
		}
		span.End()
		if !resp.OK {
			mm.errors.Inc()
		}
	}()
	return h(req)
}

// Client issues requests against a registry, local or remote.
type Client interface {
	// Call performs one request/response exchange.
	Call(Request) (Response, error)
	// Close releases the transport.
	Close() error
}

// localClient dispatches in-process.
type localClient struct{ reg *Registry }

// NewLocalClient returns a client that dispatches directly to reg.
func NewLocalClient(reg *Registry) Client { return &localClient{reg: reg} }

func (c *localClient) Call(req Request) (Response, error) { return c.reg.Dispatch(req), nil }
func (c *localClient) Close() error                       { return nil }

// --- wire representation ---

type xmlParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

type xmlRequest struct {
	XMLName xml.Name   `xml:"request"`
	Service string     `xml:"service,attr"`
	Op      string     `xml:"op,attr"`
	Params  []xmlParam `xml:"param"`
}

type xmlResponse struct {
	XMLName xml.Name   `xml:"response"`
	OK      bool       `xml:"ok,attr"`
	Code    string     `xml:"code,attr,omitempty"`
	Error   string     `xml:"error,omitempty"`
	Fields  []xmlParam `xml:"field"`
}

func encodeRequest(req Request) ([]byte, error) {
	xr := xmlRequest{Service: req.Service, Op: req.Op}
	for _, k := range sortedKeys(req.Params) {
		xr.Params = append(xr.Params, xmlParam{Name: k, Value: req.Params[k]})
	}
	return xml.Marshal(xr)
}

func decodeRequest(data []byte) (Request, error) {
	var xr xmlRequest
	if err := xml.Unmarshal(data, &xr); err != nil {
		return Request{}, err
	}
	req := Request{Service: xr.Service, Op: xr.Op, Params: map[string]string{}}
	for _, p := range xr.Params {
		req.Params[p.Name] = p.Value
	}
	return req, nil
}

func encodeResponse(resp Response) ([]byte, error) {
	xr := xmlResponse{OK: resp.OK, Code: resp.Code, Error: resp.Error}
	for _, k := range sortedKeys(resp.Fields) {
		xr.Fields = append(xr.Fields, xmlParam{Name: k, Value: resp.Fields[k]})
	}
	return xml.Marshal(xr)
}

func decodeResponse(data []byte) (Response, error) {
	var xr xmlResponse
	if err := xml.Unmarshal(data, &xr); err != nil {
		return Response{}, err
	}
	resp := Response{OK: xr.OK, Code: xr.Code, Error: xr.Error, Fields: map[string]string{}}
	for _, f := range xr.Fields {
		resp.Fields[f.Name] = f.Value
	}
	return resp, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeFrame writes a length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("vinci: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads a length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("vinci: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Server serves a registry over a listener.
type Server struct {
	reg *Registry

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a registry for network serving.
func NewServer(reg *Registry) *Server {
	return &Server{reg: reg, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener is closed. Each connection
// may carry any number of sequential request/response exchanges.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops the server: it stops accepting, nudges idle connections
// off their blocking reads, and waits for in-flight exchanges to drain
// before returning. In-flight responses are still written.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.conns {
		// Interrupt the blocking read; a dispatch already in flight
		// completes and its response write still goes out.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		// Last-resort recovery so an unexpected panic in the framing or
		// codec path kills only this connection, never the node.
		recover()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return // EOF, shutdown nudge, or broken peer: drop the connection
		}
		req, err := decodeRequest(payload)
		var resp Response
		if err != nil {
			resp = Errorf("vinci: malformed request: %v", err)
		} else {
			resp = s.reg.Dispatch(req)
		}
		out, err := encodeResponse(resp)
		if err != nil {
			return
		}
		if err := writeFrame(conn, out); err != nil {
			return
		}
	}
}

// dialTimeout bounds each connection attempt.
const dialTimeout = 5 * time.Second

// DialOptions tunes the TCP client transport.
type DialOptions struct {
	// CallTimeout is the per-call budget (0 means no deadline). The
	// remaining budget is stamped onto each outgoing request as the
	// x-deadline-ms param so every downstream hop sees only the time
	// genuinely left.
	CallTimeout time.Duration
	// Dialer overrides the transport, e.g. to inject faults in tests.
	// It receives the target address and must return a connected conn.
	Dialer func(addr string) (net.Conn, error)
}

// tcpClient is a single-connection network client; calls are serialized.
// After any transport error mid-exchange the connection may hold a
// partial frame, so it is torn down and redialed by the next call —
// never reused, which would desynchronize the framing.
type tcpClient struct {
	addr string
	opts DialOptions

	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// Dial connects to a vinci server. The timeout applies per call (0
// means no deadline).
func Dial(addr string, timeout time.Duration) (Client, error) {
	return DialWith(addr, DialOptions{CallTimeout: timeout})
}

// DialWith connects to a vinci server with explicit transport options.
// The initial connection is established eagerly so configuration errors
// surface immediately; later reconnects happen lazily inside Call.
func DialWith(addr string, opts DialOptions) (Client, error) {
	c := &tcpClient{addr: addr, opts: opts}
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("vinci: dial %s: %w", addr, err)
	}
	c.conn = conn
	return c, nil
}

// dial opens one connection using the configured transport.
func (c *tcpClient) dial() (net.Conn, error) {
	if c.opts.Dialer != nil {
		return c.opts.Dialer(c.addr)
	}
	return net.DialTimeout("tcp", c.addr, dialTimeout)
}

// Call performs one exchange within the call's deadline: the tighter of
// CallTimeout and any budget an upstream hop already stamped on the
// request. A bounded call stamps its remaining budget onto the request,
// so the server and any downstream hop can shed or abort work the
// caller will no longer wait for. A transport failure tears the
// connection down and is returned; the next call redials. Nothing is
// retried.
func (c *tcpClient) Call(req Request) (Response, error) {
	mm := clientMethod(req.Service, req.Op)
	mm.calls.Inc()
	span := mm.latency.Start()
	defer span.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.call(req)
	if err != nil {
		mm.errors.Inc()
	}
	return resp, err
}

// call is Call's body (mu held).
func (c *tcpClient) call(req Request) (Response, error) {
	if c.closed {
		return Response{}, errors.New("vinci: client closed")
	}
	// Zero means unbounded.
	var deadline time.Time
	if c.opts.CallTimeout > 0 {
		deadline = time.Now().Add(c.opts.CallTimeout)
	}
	if budget, ok := req.DeadlineBudget(); ok {
		if t := time.Now().Add(budget); deadline.IsZero() || t.Before(deadline) {
			deadline = t
		}
	}
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem <= 0 {
			clientExpired.Inc()
			return Response{}, fmt.Errorf("vinci: call %s.%s: no budget left: %w",
				req.Service, req.Op, ErrDeadlineExceeded)
		}
		req = WithDeadlineBudget(req, rem)
	}
	payload, err := encodeRequest(req)
	if err != nil {
		return Response{}, err
	}
	if c.conn == nil {
		conn, err := c.dial()
		if err != nil {
			return Response{}, fmt.Errorf("vinci: call %s.%s: dial %s: %w", req.Service, req.Op, c.addr, err)
		}
		c.conn = conn
	}
	resp, err := c.exchange(payload, deadline)
	if err != nil {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			clientExpired.Inc()
			return Response{}, fmt.Errorf("vinci: call %s.%s: deadline budget spent (%v): %w",
				req.Service, req.Op, err, ErrDeadlineExceeded)
		}
		return Response{}, fmt.Errorf("vinci: call %s.%s: %w", req.Service, req.Op, err)
	}
	if resp.Code == CodeDeadlineExceeded {
		clientExpired.Inc()
		return Response{}, fmt.Errorf("vinci: call %s.%s: %s: %w",
			req.Service, req.Op, resp.Error, ErrDeadlineExceeded)
	}
	return resp, nil
}

// exchange writes one request frame and reads the response frame on the
// live connection, bounded by the call's deadline (a zero deadline means
// unbounded). Any failure tears the connection down: after a deadline
// or I/O error mid-frame the stream may hold a partial frame, and
// reusing it would make the next call read garbage.
func (c *tcpClient) exchange(payload []byte, deadline time.Time) (Response, error) {
	// Setting the deadline unconditionally also clears (zero deadline)
	// any deadline a prior budget-carrying call left on the kept
	// connection — inheriting a spent one would fail an unbounded call
	// spuriously.
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.teardown()
		return Response{}, fmt.Errorf("set deadline: %w", err)
	}
	if err := writeFrame(c.conn, payload); err != nil {
		c.teardown()
		return Response{}, fmt.Errorf("write: %w", err)
	}
	respData, err := readFrame(c.conn)
	if err != nil {
		c.teardown()
		return Response{}, fmt.Errorf("read: %w", err)
	}
	resp, err := decodeResponse(respData)
	if err != nil {
		// A frame that parsed as a length but not as XML means the
		// stream integrity is suspect (corruption or desync): drop it.
		c.teardown()
		return Response{}, fmt.Errorf("decode: %w", err)
	}
	if !resp.OK && strings.HasPrefix(resp.Error, "vinci: malformed request") {
		// The peer could not parse the frame we sent — corruption in
		// transit, not an application failure. The stream position is
		// no longer trustworthy, so the next call starts a fresh
		// connection.
		c.teardown()
		return Response{}, fmt.Errorf("integrity: %s", resp.Error)
	}
	return resp, nil
}

// teardown closes and forgets the broken connection (mu held).
func (c *tcpClient) teardown() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *tcpClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn = nil
	}
	return err
}
