package vinci

import (
	"errors"
	"strconv"
	"time"

	"webfountain/internal/deadline"
)

// DeadlineParam is the reserved request parameter that carries a
// request's remaining deadline budget, in integer milliseconds, across
// Vinci hops. The client stamps it from its per-call budget minus the
// time already spent, so a handler that fans out to further services
// forwards only the budget that is genuinely left.
const DeadlineParam = deadline.Param

// ErrDeadlineExceeded reports that a request's deadline budget was
// spent — on the client before sending or while waiting for the
// answer, or on the server before dispatch.
var ErrDeadlineExceeded = errors.New("vinci: deadline exceeded")

// CodeDeadlineExceeded marks an expired request. It travels on the wire
// as the response's code attribute, so the client can tell a spent
// budget from a free-text handler error.
const CodeDeadlineExceeded = "deadline-exceeded"

// DeadlineExceededResponse builds the expired-request response.
func DeadlineExceededResponse(reason string) Response {
	return Response{OK: false, Code: CodeDeadlineExceeded, Error: "vinci: deadline exceeded: " + reason}
}

// IsDeadlineExceeded reports whether err marks a spent deadline budget.
func IsDeadlineExceeded(err error) bool { return errors.Is(err, ErrDeadlineExceeded) }

// formatMS renders a budget as the integer-millisecond wire value,
// rounding up so a positive sub-millisecond budget does not collapse to
// an already-expired "0".
func formatMS(d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	return strconv.FormatInt(int64((d+time.Millisecond-1)/time.Millisecond), 10)
}

// WithDeadlineBudget returns req with the remaining budget stamped into
// DeadlineParam (non-positive budgets stamp "0": already expired). The
// params map is cloned, never mutated in place: the map belongs to the
// caller, who may reuse the request or forward it with a budget of its
// own, and must not find x-deadline-ms left behind in it.
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
