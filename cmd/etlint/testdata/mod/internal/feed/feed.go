// Package feed holds the fixture module's one chanlock violation.
package feed

import "sync"

// Feed fans values out to one subscriber channel.
type Feed struct {
	mu   sync.Mutex
	sent int
	ch   chan int
}

// Publish sends while holding mu: a slow subscriber stalls every other
// caller behind the lock.
func (f *Feed) Publish(v int) {
	f.mu.Lock()
	f.sent++
	f.ch <- v
	f.mu.Unlock()
}
