package vinci

import (
	"errors"
	"time"

	"webfountain/internal/deadline"
)

// DeadlineParam is the reserved request parameter that carries a
// request's remaining deadline budget, in integer milliseconds, across
// Vinci hops. The client stamps it from its per-call budget and
// decrements it by the time already spent before each (re)transmission,
// so a handler that fans out to further services forwards only the
// budget that is genuinely left — the paper's 500-node cluster cannot
// afford a request queueing somewhere long after its caller gave up.
const DeadlineParam = deadline.Param

// ErrDeadlineExceeded reports that a request's deadline budget was
// already spent — on the client before (re)sending, or on the server
// before dispatch. It is never retried: the caller has already given up,
// so re-executing the work can only add load.
var ErrDeadlineExceeded = errors.New("vinci: deadline exceeded")

// ErrOverloaded reports that the server shed the request before doing
// any work — its admission queue was full or the request's remaining
// budget was below the observed service time. Shedding is retryable:
// another replica, or the same one after backoff, may have capacity.
var ErrOverloaded = errors.New("vinci: overloaded")

// Response codes distinguish machine-actionable failures from free-text
// handler errors. They travel on the wire as the response's code
// attribute; the client retry loop keys off them (shed → retry with
// backoff, expired → fail immediately).
const (
	// CodeOverloaded marks a shed request (retryable).
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded marks an expired request (never retryable).
	CodeDeadlineExceeded = "deadline-exceeded"
)

// OverloadedResponse builds the shed response.
func OverloadedResponse(reason string) Response {
	return Response{OK: false, Code: CodeOverloaded, Error: "vinci: overloaded: " + reason}
}

// DeadlineExceededResponse builds the expired-request response.
func DeadlineExceededResponse(reason string) Response {
	return Response{OK: false, Code: CodeDeadlineExceeded, Error: "vinci: deadline exceeded: " + reason}
}

// IsOverloaded reports whether err (or the response it was built from)
// marks a shed request.
func IsOverloaded(err error) bool { return errors.Is(err, ErrOverloaded) }

// IsDeadlineExceeded reports whether err marks a spent deadline budget.
func IsDeadlineExceeded(err error) bool { return errors.Is(err, ErrDeadlineExceeded) }

// formatMS renders a budget as the integer-millisecond wire value,
// rounding up so a positive sub-millisecond budget does not collapse to
// an already-expired "0".
func formatMS(d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	ms := (d + time.Millisecond - 1) / time.Millisecond
	return itoa(int64(ms))
}

// itoa is a minimal non-negative int64 formatter (avoids strconv in the
// per-call hot path's import set; the conversion itself is trivial).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// WithDeadlineBudget returns req with the remaining budget stamped into
// DeadlineParam (non-positive budgets stamp "0": already expired). The
// params map is cloned, never mutated in place: hedged calls hand the
// same Request to concurrent attempts, and each attempt re-stamps its
// own remaining budget — a shared map here would be a concurrent map
// write under the race the stamps create.
func WithDeadlineBudget(req Request, budget time.Duration) Request {
	params := make(map[string]string, len(req.Params)+1)
	for k, v := range req.Params {
		params[k] = v
	}
	params[DeadlineParam] = formatMS(budget)
	req.Params = params
	return req
}

// DeadlineBudget extracts the deadline budget carried by the request
// (deadline.ParseMS). ok reports whether a well-formed budget was
// present; malformed values read as absent (the server treats them as
// "no deadline" rather than failing the call — a lenient reading keeps
// old clients working).
func (r Request) DeadlineBudget() (time.Duration, bool) {
	return deadline.ParseMS(r.Params[DeadlineParam])
}

// Deadline returns the absolute deadline the dispatcher computed from
// the request's budget, for handlers that want to abort long work
// mid-flight (store scans, index searches). ok is false when the
// request carried no budget.
func (r Request) Deadline() (time.Time, bool) {
	return r.deadline, !r.deadline.IsZero()
}

// Expired reports whether the request's deadline (if any) has passed.
func (r Request) Expired() bool {
	return !r.deadline.IsZero() && time.Now().After(r.deadline)
}

// Remaining returns the budget left before the request's deadline
// (clamped at zero); ok is false when the request carries no deadline.
func (r Request) Remaining() (time.Duration, bool) {
	if r.deadline.IsZero() {
		return 0, false
	}
	d := time.Until(r.deadline)
	if d < 0 {
		d = 0
	}
	return d, true
}

// withAbsoluteDeadline returns req carrying the absolute deadline
// (dispatch-side; not serialized).
func (r Request) withAbsoluteDeadline(t time.Time) Request {
	r.deadline = t
	return r
}
