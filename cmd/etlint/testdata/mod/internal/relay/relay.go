// Package relay forwards into a feed under its own lock, with a
// justified suppression that covers the resulting chanlock finding.
package relay

import (
	"sync"

	"etlintfixture/internal/feed"
)

// Relay serializes forwarding into one feed.
type Relay struct {
	mu   sync.Mutex
	feed *feed.Feed
}

// Forward publishes under mu so forwarded values keep their order.
func (r *Relay) Forward(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	//etlint:ignore chanlock ordering needs the lock; the feed's subscriber is never slow
	r.feed.Publish(v)
}
