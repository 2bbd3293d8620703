package encoder

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"collabscope/internal/exchange"
)

func backoffRemote(t *testing.T, opts ...RemoteOption) *Remote {
	t.Helper()
	r, err := NewRemote("http://example.invalid", append([]RemoteOption{
		WithDim(8),
		WithRetryPolicy(exchange.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    2 * time.Second,
			Timeout:     time.Second,
		}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBackoffSchedule pins the jittered-doubling schedule: each delay is
// within [base·2^(k−1)/2, base·2^(k−1)] capped at MaxDelay, and a seeded
// jitter source makes the whole schedule reproducible.
func TestBackoffSchedule(t *testing.T) {
	r := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(1, 2))))
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := r.backoff(attempt, errors.New("boom"))
		want := 100 * time.Millisecond << (attempt - 1)
		if want > 2*time.Second {
			want = 2 * time.Second
		}
		if d < want/2 || d > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
		}
		if want == 2*time.Second && prevCap != 0 && d < want/2 {
			t.Fatalf("capped delay fell below half the cap: %v", d)
		}
		prevCap = want
	}

	// Same seed, same schedule.
	a := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(7, 7))))
	b := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(7, 7))))
	for attempt := 1; attempt <= 5; attempt++ {
		if da, db := a.backoff(attempt, nil), b.backoff(attempt, nil); da != db {
			t.Fatalf("seeded schedules diverged at attempt %d: %v vs %v", attempt, da, db)
		}
	}
}

// TestBackoffHonoursRetryAfter pins the Retry-After floor: server advice
// lifts a small jittered delay, and is itself capped at MaxDelay.
func TestBackoffHonoursRetryAfter(t *testing.T) {
	r := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(1, 1))))
	err := &encodeStatusError{code: 429, retryAfter: time.Second}
	if d := r.backoff(1, err); d < time.Second {
		t.Fatalf("Retry-After floor ignored: %v < 1s", d)
	}
	// Advice beyond MaxDelay is capped.
	err = &encodeStatusError{code: 429, retryAfter: time.Minute}
	if d := r.backoff(1, err); d != 2*time.Second {
		t.Fatalf("Retry-After cap: %v, want MaxDelay 2s", d)
	}
}

// TestBackoffHonoursRetryAfterHTTPDate pins the shared Retry-After parser
// on the encoder path: a server answering 503 with the RFC 9110 HTTP-date
// form of Retry-After floors the next backoff, exactly like delay-seconds.
func TestBackoffHonoursRetryAfterHTTPDate(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	r, err := NewRemote(srv.URL, WithDim(8), WithJitterRand(rand.New(rand.NewPCG(1, 1))),
		WithRetryPolicy(exchange.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Minute, Timeout: 5 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.EncodeBatch(context.Background(), []string{"a"})
	var se *encodeStatusError
	if !errors.As(err, &se) || se.code != http.StatusServiceUnavailable {
		t.Fatalf("want a 503 status error, got %v", err)
	}
	if d := r.backoff(1, err); d < 20*time.Second || d > 30*time.Second {
		t.Fatalf("backoff %v after an HTTP-date Retry-After ~30s out, want it floored in [20s, 30s]", d)
	}
}

func TestRetryableEncodeClassification(t *testing.T) {
	if retryableEncode(&encodeStatusError{code: 400}) {
		t.Fatal("400 must not retry")
	}
	if !retryableEncode(&encodeStatusError{code: 503}) || !retryableEncode(&encodeStatusError{code: 429}) {
		t.Fatal("503/429 must retry")
	}
	if !retryableEncode(context.DeadlineExceeded) {
		t.Fatal("deadline must retry")
	}
	if retryableEncode(errors.New("parse failure")) {
		t.Fatal("plain errors must not retry")
	}
}

// TestEncodeStatusErrorMessage pins both Error() forms (with and without
// a body excerpt).
func TestEncodeStatusErrorMessage(t *testing.T) {
	if got := (&encodeStatusError{code: 500}).Error(); got != "http status 500" {
		t.Fatalf("bare form: %q", got)
	}
	if got := (&encodeStatusError{code: 500, body: " boom \n"}).Error(); got != "http status 500: boom" {
		t.Fatalf("body form: %q", got)
	}
}
