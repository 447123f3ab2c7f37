package fetch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"syscall"
)

// ErrorKind classifies an origin fetch failure so the proxy (and tests)
// can branch on failure class instead of string-matching net/http
// errors: a timeout degrades differently from a refused connection, and
// a 4xx should never be retried.
type ErrorKind string

// The failure classes. Timeout, Refused, Reset, DNS, Transport, and 5xx
// and 429 Status errors are origin-health signals: they are retried for
// idempotent GETs, and a GET that fails with one on every attempt marks
// its host failing.
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
	// Origin is the host the request went to.
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
// hiccups, 5xx and 429 responses). Other 4xx responses and oversized
// bodies are not.
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

// transportError wraps a client.Do failure in a typed *Error.
func transportError(rawURL, host string, err error) *Error {
	return &Error{
		URL:      rawURL,
		Origin:   host,
		Kind:     classifyTransport(err),
		Attempts: 1,
		Err:      err,
	}
}

// statusError wraps a non-2xx response in a typed *Error that also
// carries the legacy *StatusError, so errors.As finds either form.
func statusError(rawURL, host string, status int) *Error {
	return &Error{
		URL:      rawURL,
		Origin:   host,
		Kind:     KindStatus,
		Status:   status,
		Attempts: 1,
		Err:      &StatusError{URL: rawURL, Status: status},
	}
}
