package loadgen

import (
	"sync"
	"time"

	"cpa/internal/obs"
)

// lockedHist is an obs.Hist behind its owner's lock: the sender records
// into one while the background readers record into another, and a
// capacity pass records from every client goroutine.
type lockedHist struct {
	mu sync.Mutex
	h  obs.Hist
}

func (l *lockedHist) observe(d time.Duration) {
	l.mu.Lock()
	l.h.Observe(d)
	l.mu.Unlock()
}

func (l *lockedHist) summary() obs.HistSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Summary()
}

// resetSummary clears the histogram (phase boundaries) and returns the
// summary of what it held, under one critical section so a concurrent
// observe lands wholly in one phase or the next, never in neither.
func (l *lockedHist) resetSummary() obs.HistSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.h.Summary()
	l.h = obs.Hist{}
	return s
}
