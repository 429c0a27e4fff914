package lease

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// DefaultDialBudget is the total retry budget one wire call gets before the
// worker concludes the coordinator is gone. Individual attempts back off
// exponentially with full jitter (so a restarting coordinator is not
// stampeded), and the budget bounds the whole loop.
const DefaultDialBudget = 15 * time.Second

// ErrCoordinatorGone marks a wire call whose whole retry budget was spent
// on transport errors: the coordinator process is unreachable.
var ErrCoordinatorGone = errors.New("coordinator unreachable")

// Client makes a worker's wire calls against one coordinator: JSON bodies,
// jittered exponential backoff, and ErrCoordinatorGone once the budget is
// spent.
type Client struct {
	base   string
	budget time.Duration
	hc     *http.Client
}

// NewClient returns a client for the coordinator at addr (host:port).
// budget bounds each call's retries (0 = DefaultDialBudget).
func NewClient(addr string, budget time.Duration) *Client {
	if budget <= 0 {
		budget = DefaultDialBudget
	}
	return &Client{base: "http://" + addr, budget: budget, hc: &http.Client{}}
}

// Get fetches path into out.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.call(ctx, http.MethodGet, path, nil, out, c.budget)
}

// Post posts body to path and decodes the response into out.
func (c *Client) Post(ctx context.Context, path string, body, out any) error {
	return c.post(ctx, path, body, out, c.budget)
}

func (c *Client) post(ctx context.Context, path string, body, out any, budget time.Duration) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.call(ctx, http.MethodPost, path, b, out, budget)
}

// call retries transport errors until the budget is spent or ctx is
// cancelled. HTTP 400 and 409 are retried too: 400 means the coordinator
// could not parse or verify the body, and 409 means it refused the identity
// the body carried. An honest worker's fingerprint is verified at
// handshake, so both can only mean the request was corrupted in flight, and
// the next attempt sends a fresh copy. Any other non-2xx response is
// returned at once.
func (c *Client) call(ctx context.Context, method, path string, body []byte, out any, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	base := max(budget/64, time.Millisecond)
	maxSleep := budget / 4
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Full jitter over an exponentially growing cap spreads a fleet of
			// workers hammering a restarting coordinator.
			sleepCap := base << uint(min(attempt-1, 30))
			if sleepCap <= 0 || sleepCap > maxSleep {
				sleepCap = maxSleep
			}
			sleep := time.Duration(rand.Int63n(int64(sleepCap) + 1)) //nolint:gosec // jitter, not crypto
			if time.Now().Add(sleep).After(deadline) {
				return fmt.Errorf("%w after %d attempts over %v: %v", ErrCoordinatorGone, attempt, budget, lastErr)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sleep):
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue // transport error: coordinator restarting or gone
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, MaxLine))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode/100 != 2 {
			var we wireError
			rejection := resp.Status
			if json.Unmarshal(data, &we) == nil && we.Error != "" {
				rejection = we.Error
			}
			if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusConflict {
				lastErr = fmt.Errorf("coordinator rejected body (%d): %s", resp.StatusCode, rejection)
				continue
			}
			return fmt.Errorf("coordinator rejected request (%d): %s", resp.StatusCode, rejection)
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				lastErr = fmt.Errorf("bad coordinator response: %w", err)
				continue // response corrupted in flight
			}
		}
		return nil
	}
}
