package campaign

import (
	"context"
	"time"
)

// holdCap bounds how long the lease handler holds one request. At the cap it
// answers LeaseWait and the worker asks again at once, so the cap only
// bounds how long a connection stays parked; it never delays a wake-up.
const holdCap = 5 * time.Second

// CorruptLeaseBackoff is how long a worker waits before asking again after
// discarding a lease response it could not understand (only in-flight
// corruption produces one). Short and fixed: the coordinator holds honest
// waits itself, so this only paces a worker talking over a damaged wire.
const CorruptLeaseBackoff = 50 * time.Millisecond

// Waker is the wake half of a held lease request: a channel that the next
// state change closes. It is guarded by its owner's mutex — Chan and Wake
// must both be called with that mutex held — so a lease attempt that
// answers LeaseWait and the channel it waits on come from one critical
// section, and no state change can fall between them. The zero value is
// ready to use; a Wake with nobody waiting allocates nothing.
type Waker struct {
	ch chan struct{}
}

// Chan returns the channel the next Wake closes. Caller holds the owner's
// mutex.
func (w *Waker) Chan() <-chan struct{} {
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	return w.ch
}

// Wake releases every request waiting on Chan. Caller holds the owner's
// mutex.
func (w *Waker) Wake() {
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
}

// HoldLease answers one lease request on behalf of a coordinator's HTTP
// handler, turning a LeaseWait into a wait at the coordinator. lease makes
// one non-blocking attempt under the coordinator's mutex and returns its
// answer; when that answer is LeaseWait it also returns the channel the
// next state change closes (Waker.Chan) and the earliest outstanding lease
// deadline (zero if none). A nil wake channel means the answer is final.
//
// The attempt re-runs when the channel closes or the deadline passes — the
// re-run reclaims the expired lease — and HoldLease returns the first final
// answer. It returns the last LeaseWait when ctx ends (client gone, server
// closing) or after holdCap.
//
// Holding changes only when a worker hears an answer, never what the answer
// is: every attempt is the same Lease call a polling worker would make.
func HoldLease[R any](ctx context.Context, lease func() (resp R, wake <-chan struct{}, deadline time.Time, err error)) (R, error) {
	limit := time.NewTimer(holdCap)
	defer limit.Stop()
	for {
		resp, wake, deadline, err := lease()
		if err != nil || wake == nil {
			return resp, err
		}
		var expiry *time.Timer
		var expired <-chan time.Time
		if !deadline.IsZero() {
			expiry = time.NewTimer(time.Until(deadline))
			expired = expiry.C
		}
		held := true
		select {
		case <-wake:
		case <-expired:
		case <-limit.C:
			held = false
		case <-ctx.Done():
			held = false
		}
		if expiry != nil {
			expiry.Stop()
		}
		if !held {
			return resp, nil
		}
	}
}
