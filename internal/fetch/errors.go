package fetch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"syscall"
)

// ErrorKind classifies an origin fetch failure so the proxy (and tests)
// can branch on failure class instead of string-matching net/http
// errors: a timeout degrades differently from a refused connection, and
// an open breaker should never be retried.
type ErrorKind string

// The failure classes. Timeout, Refused, Reset, DNS, and 5xx Status
// errors are origin-health signals: they count against the origin's
// circuit breaker and are retried for idempotent GETs. BreakerOpen is
// the fetcher refusing to contact a tripped origin at all.
const (
	// KindTimeout is a request or connect deadline expiring.
	KindTimeout ErrorKind = "timeout"
	// KindRefused is a TCP connection refused.
	KindRefused ErrorKind = "refused"
	// KindReset is a connection reset or truncated response mid-transfer.
	KindReset ErrorKind = "reset"
	// KindDNS is a name-resolution failure.
	KindDNS ErrorKind = "dns"
	// KindStatus is a non-2xx origin response (Status carries the code).
	KindStatus ErrorKind = "status"
	// KindBreakerOpen is a request short-circuited by an open per-origin
	// circuit breaker — the origin was never contacted.
	KindBreakerOpen ErrorKind = "breaker_open"
	// KindTransport is any other transport-level failure.
	KindTransport ErrorKind = "transport"
	// KindTooLarge is a response body over the fetcher's limit: the
	// origin answered, but a page cut short would be adapted as if it
	// were whole.
	KindTooLarge ErrorKind = "too_large"
)

// Error is the typed failure every fetch method returns for transport
// and status problems. It wraps the underlying cause (errors.Is/As see
// through it) and records which origin failed, how, and after how many
// attempts.
type Error struct {
	// URL is the request URL that failed.
	URL string
	// Origin is the origin host the breaker tracks.
	Origin string
	// Kind is the failure class.
	Kind ErrorKind
	// Status is the HTTP status code when Kind == KindStatus.
	Status int
	// Attempts is how many times the request was tried (1 = no retries).
	Attempts int
	// Err is the underlying cause, if any.
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	detail := ""
	if e.Kind == KindStatus {
		detail = " " + strconv.Itoa(e.Status)
	}
	suffix := ""
	if e.Attempts > 1 {
		suffix = fmt.Sprintf(" after %d attempts", e.Attempts)
	}
	// A status failure's cause is the *StatusError built from the same
	// URL and code, so its text would only repeat them.
	if e.Err != nil && e.Kind != KindStatus {
		return fmt.Sprintf("fetch: %s: %s%s%s: %v", e.URL, e.Kind, detail, suffix, e.Err)
	}
	return fmt.Sprintf("fetch: %s: %s%s%s", e.URL, e.Kind, detail, suffix)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Temporary reports whether the failure class is worth retrying: the
// origin may answer a later attempt (timeouts, refusals, resets, DNS
// hiccups, 5xx and 429 responses). Breaker rejections and other 4xx
// responses are not.
func (e *Error) Temporary() bool {
	switch e.Kind {
	case KindTimeout, KindRefused, KindReset, KindDNS, KindTransport:
		return true
	case KindStatus:
		return e.Status >= 500 || e.Status == 429
	default:
		return false
	}
}

// Retryable reports whether err is a fetch failure a retry could fix.
func Retryable(err error) bool {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Temporary()
	}
	return false
}

// classifyTransport maps a net/http transport error onto its kind.
func classifyTransport(err error) ErrorKind {
	var dnsErr *net.DNSError
	switch {
	case errors.As(err, &dnsErr):
		return KindDNS
	case errors.Is(err, context.DeadlineExceeded), isTimeout(err):
		return KindTimeout
	case errors.Is(err, syscall.ECONNREFUSED):
		return KindRefused
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return KindReset
	default:
		return KindTransport
	}
}

func isTimeout(err error) bool {
	var netErr net.Error
	return errors.As(err, &netErr) && netErr.Timeout()
}

// originOf extracts the breaker key (host) from a raw URL.
func originOf(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return u.Host
}

// transportError wraps a client.Do failure in a typed *Error.
func transportError(rawURL string, attempts int, err error) *Error {
	return &Error{
		URL:      rawURL,
		Origin:   originOf(rawURL),
		Kind:     classifyTransport(err),
		Attempts: attempts,
		Err:      err,
	}
}

// statusError wraps a non-2xx response in a typed *Error that also
// carries the legacy *StatusError, so errors.As finds either form.
func statusError(rawURL string, status, attempts int) *Error {
	return &Error{
		URL:      rawURL,
		Origin:   originOf(rawURL),
		Kind:     KindStatus,
		Status:   status,
		Attempts: attempts,
		Err:      &StatusError{URL: rawURL, Status: status},
	}
}
