// Package deadline parses x-deadline-ms, a caller's remaining deadline
// budget in integer milliseconds. The Vinci protocol carries it as a
// request parameter and the HTTP gateway accepts it as a header; both
// read it with ParseMS. The package imports nothing but time, so the
// gateway does not link the RPC layer to read one header.
package deadline

import "time"

// Param is the parameter and header name that carries the budget.
const Param = "x-deadline-ms"

// MaxMS bounds a parsed budget (~12 days) so converting it to a
// time.Duration in nanoseconds can never overflow.
const MaxMS = int64(1) << 30

// ParseMS parses a Param value. It never panics and never yields a
// negative budget: malformed, negative or overflowing values return
// ok == false. Leading zeros and an optional '+' are accepted; anything
// else non-numeric is rejected.
func ParseMS(s string) (time.Duration, bool) {
	if s == "" {
		return 0, false
	}
	if s[0] == '+' {
		s = s[1:]
		if s == "" {
			return 0, false
		}
	}
	var ms int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		ms = ms*10 + int64(c-'0')
		if ms > MaxMS {
			return 0, false
		}
	}
	return time.Duration(ms) * time.Millisecond, true
}
