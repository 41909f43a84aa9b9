package service

import (
	"exptrain/internal/persist"
)

// Health is the manager's operator-facing health summary — what
// GET /v1/healthz reports and what a load balancer should act on.
type Health struct {
	// OK is false while the manager is draining, any session is
	// degraded, or the last store operation failed — conditions under
	// which an operator should drain traffic toward a healthier replica.
	OK bool `json:"ok"`
	// Live, Parked and Degraded count sessions (degraded ⊆ live).
	Live     int `json:"live"`
	Parked   int `json:"parked"`
	Degraded int `json:"degraded"`
	// Draining reports Shutdown in progress.
	Draining bool `json:"draining"`
	// BusyPools counts sessions with a labelpool round queued behind a
	// gap: a submission that waits for an earlier round to arrive.
	BusyPools int `json:"busy_pools"`
	// StoreFailures counts store operations that exhausted the retry
	// policy since startup; StoreError is the most recent one, empty
	// once an operation succeeds again.
	StoreFailures uint64 `json:"store_failures"`
	StoreError    string `json:"store_error,omitempty"`
	// WalAppended counts round deltas durably appended through the
	// store's WAL (always 0 over a store without round appends, such as
	// MemStore). Rounds covered by a full checkpoint instead — a
	// session's base snapshot landing late — are not counted.
	WalAppended uint64 `json:"wal_appended,omitempty"`
	// WalPending counts rounds recorded by live sessions but not yet
	// durable — waiting on an append, or on a base snapshot that has not
	// landed. It is the crash-loss exposure; a non-zero steady state
	// means the store is failing.
	WalPending int `json:"wal_pending,omitempty"`
	// Replicas carries per-replica checkpoint-store counters when the
	// store is a replicating persist.MultiStore (absent otherwise): a
	// replica with climbing failures is a disk to replace before a
	// second one dies.
	Replicas []persist.ReplicaStats `json:"replicas,omitempty"`
	// Wal carries the store's write-ahead-log counters when the store
	// is WAL-backed (absent otherwise): unflushed records and the last
	// group-commit batch size say how commits are batching, the fsync
	// p99 is the durability latency floor, and the compaction lag is
	// the committed-but-unfolded replay work a recovery would redo.
	// Under replication the counts are summed across replicas and the
	// p99 is the worst replica's.
	Wal *persist.WalStats `json:"wal,omitempty"`
}

// replicaStats is the optional store interface surfacing per-replica
// counters (persist.MultiStore).
type replicaStats interface {
	Stats() []persist.ReplicaStats
}

// Health reports the manager's current health.
func (m *Manager) Health() Health {
	m.mu.Lock()
	h := Health{
		Live:          len(m.live),
		Parked:        len(m.parked),
		Degraded:      len(m.degraded),
		Draining:      m.draining,
		StoreFailures: m.storeFails,
		WalAppended:   m.walAppended,
	}
	if m.storeErr != nil {
		h.StoreError = m.storeErr.Error()
	}
	for _, e := range m.live {
		if e.wal != nil {
			// Lock-free read of the recorder's atomic backlog mirror —
			// health must not queue behind entry locks.
			h.WalPending += e.wal.backlog()
		}
	}
	h.OK = h.Degraded == 0 && m.storeErr == nil && !m.draining
	m.mu.Unlock()

	m.poolMu.Lock()
	pools := make([]*labelPool, 0, len(m.pools))
	for _, p := range m.pools {
		pools = append(pools, p)
	}
	m.poolMu.Unlock()
	for _, p := range pools {
		p.mu.Lock()
		busy := len(p.queue) > 0
		p.mu.Unlock()
		if busy {
			h.BusyPools++
		}
	}
	if rs, ok := m.store.(replicaStats); ok {
		h.Replicas = rs.Stats()
	}
	if ws, ok := m.store.(persist.WalStatter); ok {
		if st, reported := ws.WalStats(); reported {
			h.Wal = &st
		}
	}
	return h
}
