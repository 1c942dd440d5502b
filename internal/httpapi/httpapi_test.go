package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestWriteErrorRetryAfter: the header is the envelope hint rounded up to
// whole seconds (minimum 1); a backpressure status without a hint still
// says 1; other statuses carry no header.
func TestWriteErrorRetryAfter(t *testing.T) {
	cases := []struct {
		e    *Error
		want string
	}{
		{Errf(http.StatusTooManyRequests, CodeOverloaded, "full"), "1"},
		{&Error{Status: http.StatusServiceUnavailable, Code: CodeShuttingDown, RetryAfterMS: 1001}, "2"},
		{&Error{Status: http.StatusServiceUnavailable, Code: CodeStoreFault}, "1"},
		{&Error{Status: http.StatusBadGateway, Code: CodeShardUnreachable, RetryAfterMS: 3000}, "3"},
		{Errf(http.StatusBadRequest, CodeBadRequest, "bad"), ""},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		WriteError(w, c.e)
		if got := w.Header().Get("Retry-After"); got != c.want || w.Code != c.e.Status {
			t.Errorf("%+v: status %d Retry-After %q, want %d %q", *c.e, w.Code, got, c.e.Status, c.want)
		}
	}
}

func TestTimeout(t *testing.T) {
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{{0, 10 * time.Second}, {-5, 10 * time.Second}, {250, 250 * time.Millisecond}, {90_000, time.Minute}} {
		if got := Timeout(c.ms, 10*time.Second, time.Minute); got != c.want {
			t.Errorf("Timeout(%d) = %v, want %v", c.ms, got, c.want)
		}
	}
}
