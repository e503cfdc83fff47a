package rpc

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"geomds/internal/feed"
	"geomds/internal/limits"
	"geomds/internal/registry"
)

// TestErrorCodeTableRoundTrips pins the code table of docs/WIRE.md: every
// sentinel a server-side failure can wrap travels as its own code and comes
// back matching the same sentinel under errors.Is; anything else is opaque.
func TestErrorCodeTableRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		sentinel error
		code     ErrCode
	}{
		{registry.ErrNotFound, ErrNotFound},
		{registry.ErrExists, ErrExists},
		{registry.ErrConflict, ErrConflict},
		{registry.ErrInvalidEntry, ErrInvalid},
		{registry.ErrUnavailable, ErrUnavailable},
		{context.DeadlineExceeded, ErrDeadline},
		{context.Canceled, ErrCanceled},
		{feed.ErrLagged, ErrFeedLagged},
		{feed.ErrClosed, ErrFeedClosed},
		{feed.ErrCompacted, ErrCursorTooOld},
	} {
		code, detail := encodeFeedErr(fmt.Errorf("op: %w", tc.sentinel))
		if code != tc.code {
			t.Errorf("%v encodes as %q, want %q", tc.sentinel, code, tc.code)
		}
		if back := decodeFeedErr(Response{Err: code, Detail: detail}); !errors.Is(back, tc.sentinel) {
			t.Errorf("code %q decodes to %v, want it to match %v", code, back, tc.sentinel)
		}
	}

	over := &limits.Overload{RetryAfter: 40 * time.Millisecond}
	resp := failure(fmt.Errorf("admit: %w", over))
	if resp.Err != ErrOverloaded || resp.RetryAfterNs != int64(over.RetryAfter) {
		t.Fatalf("overload travels as %+v", resp)
	}
	back := decodeFeedErr(resp)
	if d, ok := limits.RetryAfter(back); !errors.Is(back, limits.ErrOverloaded) || !ok || d != over.RetryAfter {
		t.Errorf("overload decodes to %v (retry-after %v, %v)", back, d, ok)
	}

	if code, _ := encodeErr(errors.New("disk on fire")); code != ErrInternal {
		t.Errorf("an unclassified error encodes as %q, want %q", code, ErrInternal)
	}
	if back := decodeErr(ErrInternal, "disk on fire"); back == nil || errors.Is(back, registry.ErrNotFound) {
		t.Errorf("internal decodes to %v, want an opaque error", back)
	}
	if code, _ := encodeErr(nil); code != ErrNone || decodeErr(ErrNone, "") != nil {
		t.Error("a nil error must travel as the empty code and decode to nil")
	}
}
