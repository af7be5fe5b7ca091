package service

import (
	"context"
	"sync/atomic"
	"time"
)

// admission is the service's CPU budget: a counting semaphore holding one
// token per executing request. A request that finds no free token waits
// in Service.admit's bounded queue; the wait is recorded for /stats.
type admission struct {
	tokens chan struct{}
	waits  atomic.Uint64 // acquisitions that had to wait
	waitNs atomic.Int64  // total time spent waiting in acquire
}

// newAdmission returns a semaphore of n tokens. n < 1 is clamped to 1.
func newAdmission(n int) *admission {
	if n < 1 {
		n = 1
	}
	return &admission{tokens: make(chan struct{}, n)}
}

// inUse returns how many tokens are currently held.
func (a *admission) inUse() int { return len(a.tokens) }

// tryAcquire takes a token without blocking, reporting success.
func (a *admission) tryAcquire() bool {
	select {
	case a.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire is the queued path after a failed tryAcquire: it takes a token,
// blocking until one frees up or ctx is done, and records the wait,
// aborted waits included, for waitStats.
func (a *admission) acquire(ctx context.Context) error {
	start := time.Now()
	defer func() {
		a.waits.Add(1)
		a.waitNs.Add(int64(time.Since(start)))
	}()
	select {
	case a.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns one token. Releasing more tokens than were acquired is a
// programming error and panics.
func (a *admission) release() {
	select {
	case <-a.tokens:
	default:
		panic("service: admission release without a matching acquire")
	}
}

// waitStats returns how many acquisitions had to wait and the total time
// spent waiting (aborted waits included).
func (a *admission) waitStats() (waits uint64, waited time.Duration) {
	return a.waits.Load(), time.Duration(a.waitNs.Load())
}
