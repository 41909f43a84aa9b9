package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/game"
)

// The labelpool is the batched admission path of the v1 API: clients
// POST whole windows of round submissions, each keyed by its round
// index (the session's nonce), get tickets back immediately, and a
// per-session drain applies queued rounds into the engine in batches
// under one entry-lock acquisition — observer events, belief updates
// and the round append amortize across the batch instead of costing
// one lock round-trip per round.
//
// The shape is a transaction pool keyed by nonce: the queue is kept
// sorted by round, the drain only applies the consecutive run starting
// at the session's current round, and a gap parks the queue until the
// missing round arrives (via another enqueue or a direct submit, which
// kicks the drain). Enqueue validation is all-or-nothing and cheap —
// pair membership against the relation, label domain against the
// schema, duplicate-round against the queue — so a rejected batch
// leaves no partial state.

// Submission is one queued round: the labels to apply when the session
// reaches Round.
type Submission struct {
	Round  int
	Labels []belief.Labeling
}

// TicketState is a submission ticket's lifecycle state.
type TicketState string

const (
	// TicketQueued: accepted, waiting for the drain.
	TicketQueued TicketState = "queued"
	// TicketApplied: the round was applied to the session (or was an
	// identical replay of an already-applied round).
	TicketApplied TicketState = "applied"
	// TicketFailed: the round could not be applied; Error says why. The
	// round slot is free again — enqueue a corrected submission.
	TicketFailed TicketState = "failed"
)

// Ticket is the receipt for one queued submission, polled on
// GET /v1/sessions/{id}/submissions/{ticket}.
type Ticket struct {
	ID    string      `json:"id"`
	Round int         `json:"round"`
	State TicketState `json:"state"`
	Error string      `json:"error,omitempty"`
}

// ticketHistory bounds how many terminal tickets a pool remembers;
// older ones age out FIFO and then poll as ErrTicketNotFound.
const ticketHistory = 256

// poolItem is one queued submission with its ticket.
type poolItem struct {
	round    int
	labeled  []belief.Labeling
	ticketID string
}

// labelPool is one session's admission queue. Lock order: an entry
// lock may be taken before pool.mu (the drain resynchronizes under
// both), and the manager mutex may be taken under pool.mu (short
// metadata reads); pool.mu is never held while taking an entry lock,
// and nothing takes pool.mu while holding the manager mutex.
type labelPool struct {
	id string

	mu sync.Mutex
	// queue holds pending submissions sorted by round; guarded by mu.
	queue []poolItem
	// draining marks the single-flight drain goroutine; guarded by mu.
	draining bool
	// tickets indexes every remembered ticket; guarded by mu.
	tickets map[string]*Ticket
	// order is the tickets' FIFO eviction order; guarded by mu.
	order []string
	// seq numbers tickets; guarded by mu.
	seq uint64
}

// newTicketLocked mints a queued ticket, aging out old terminal ones.
func (p *labelPool) newTicketLocked(round int) *Ticket {
	p.seq++
	t := &Ticket{ID: fmt.Sprintf("t%d", p.seq), Round: round, State: TicketQueued}
	p.tickets[t.ID] = t
	p.order = append(p.order, t.ID)
	for len(p.order) > ticketHistory {
		drop := -1
		for i, id := range p.order {
			if p.tickets[id].State != TicketQueued {
				drop = i
				break
			}
		}
		if drop < 0 {
			break // everything queued (bounded by MaxQueuedSubmissions)
		}
		delete(p.tickets, p.order[drop])
		p.order = append(p.order[:drop], p.order[drop+1:]...)
	}
	return t
}

// resolveLocked moves a ticket to a terminal state.
func (p *labelPool) resolveLocked(id string, state TicketState, err error) {
	t, ok := p.tickets[id]
	if !ok {
		return
	}
	t.State = state
	if err != nil {
		t.Error = err.Error()
	}
}

// poolFor returns the session's labelpool, creating it on first use.
// Pools are keyed by session id and survive park/unpark — a queued
// submission must not vanish because the session got evicted.
func (m *Manager) poolFor(id string) *labelPool {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	p, ok := m.pools[id]
	if !ok {
		p = &labelPool{id: id, tickets: make(map[string]*Ticket)}
		m.pools[id] = p
	}
	return p
}

// EnqueueSubmissions admits a batch of round submissions into the
// session's labelpool and returns one queued ticket per submission.
// Validation is all-or-nothing: no submission may collide with a
// queued or in-batch round (ErrDuplicateRound), every labeling must
// reference in-relation rows and in-schema attributes, and the batch
// must fit the queue bound (ErrSubmissionBacklog). On any failure
// nothing is queued and no ticket is issued. A round behind the
// session's current round is admitted and resolved by the drain under
// the idempotency contract: an identical evidence replay of what that
// round recorded resolves applied, anything else fails its ticket
// with a round-mismatch reason.
func (m *Manager) EnqueueSubmissions(ctx context.Context, id string, subs []Submission) ([]Ticket, error) {
	if len(subs) == 0 {
		return nil, badRequest(errors.New("empty submission batch"))
	}
	// One entry acquisition up front: it proves the session exists,
	// unparks it if needed, and reads the relation bounds the labels are
	// validated against. Released before the pool lock.
	e, err := m.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	rows := e.sess.Relation().NumRows()
	arity := e.sess.Relation().Schema().Arity()
	e.mu.Unlock()

	for _, s := range subs {
		if err := validateLabels(s.Labels, rows, arity); err != nil {
			return nil, fmt.Errorf("round %d: %w", s.Round, err)
		}
	}

	p := m.poolFor(id)
	p.mu.Lock()
	queued := make(map[int]bool, len(p.queue)+len(subs))
	for _, it := range p.queue {
		queued[it.round] = true
	}
	for _, s := range subs {
		if queued[s.Round] {
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: round %d", ErrDuplicateRound, s.Round)
		}
		queued[s.Round] = true
	}
	if len(p.queue)+len(subs) > m.opts.MaxQueuedSubmissions {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %d queued, batch of %d exceeds the bound of %d",
			ErrSubmissionBacklog, len(p.queue), len(subs), m.opts.MaxQueuedSubmissions)
	}
	out := make([]Ticket, len(subs))
	for i, s := range subs {
		t := p.newTicketLocked(s.Round)
		p.queue = append(p.queue, poolItem{round: s.Round, labeled: s.Labels, ticketID: t.ID})
		out[i] = *t
	}
	sort.Slice(p.queue, func(i, j int) bool { return p.queue[i].round < p.queue[j].round })
	// Re-check draining while still holding the pool lock: Shutdown sets
	// the manager's flag and then flushes the pools, so an enqueue that won
	// its acquire just before the flag flipped could otherwise slip items in
	// after the flush already drained this pool. Observing the flag here
	// (under p.mu, which the flush must also take) makes the two cases
	// exhaustive: either the flush sees our items, or we see the flag
	// and roll back.
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	if draining {
		for _, t := range out {
			delete(p.tickets, t.ID)
		}
		issued := make(map[string]bool, len(out))
		for _, t := range out {
			issued[t.ID] = true
		}
		keepQ := p.queue[:0]
		for _, it := range p.queue {
			if !issued[it.ticketID] {
				keepQ = append(keepQ, it)
			}
		}
		p.queue = keepQ
		keepO := p.order[:0]
		for _, tid := range p.order {
			if !issued[tid] {
				keepO = append(keepO, tid)
			}
		}
		p.order = keepO
		p.mu.Unlock()
		return nil, ErrShuttingDown
	}
	p.mu.Unlock()

	m.kickDrain(p)
	return out, nil
}

// validateLabels is the cheap up-front admission check: row indices in
// the relation, marked attributes in the schema, no duplicate pairs.
// What it cannot check — whether a pair will be presented in that
// round — is the drain's job (unpresented pairs become revisions or
// errors exactly as on the direct submit path).
func validateLabels(labeled []belief.Labeling, rows, arity int) error {
	seen := make(map[[2]int]bool, len(labeled))
	for _, l := range labeled {
		if l.Pair.A < 0 || l.Pair.B < 0 || l.Pair.A >= rows || l.Pair.B >= rows {
			return badRequest(fmt.Errorf("pair (%d,%d) outside the relation's %d rows", l.Pair.A, l.Pair.B, rows))
		}
		if l.Pair.A == l.Pair.B {
			return badRequest(fmt.Errorf("pair (%d,%d) compares a row with itself", l.Pair.A, l.Pair.B))
		}
		key := [2]int{l.Pair.A, l.Pair.B}
		if seen[key] {
			return badRequest(fmt.Errorf("duplicate labeling for pair (%d,%d)", l.Pair.A, l.Pair.B))
		}
		seen[key] = true
		for _, a := range l.Marked.Attrs() {
			if a >= arity {
				return badRequest(fmt.Errorf("marked attribute %d outside the schema's %d attributes", a, arity))
			}
		}
	}
	return nil
}

// Ticket reports the state of one queued submission.
func (m *Manager) Ticket(ctx context.Context, id, ticketID string) (Ticket, error) {
	if err := ctx.Err(); err != nil {
		return Ticket{}, err
	}
	m.poolMu.Lock()
	p, ok := m.pools[id]
	m.poolMu.Unlock()
	if !ok {
		return Ticket{}, fmt.Errorf("%w: session %q has no submission queue", ErrTicketNotFound, id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tickets[ticketID]
	if !ok {
		return Ticket{}, fmt.Errorf("%w: %q", ErrTicketNotFound, ticketID)
	}
	return *t, nil
}

// peekPool returns the session's labelpool without creating one.
func (m *Manager) peekPool(id string) *labelPool {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	return m.pools[id]
}

// QueuedSubmissions reports how many submissions are waiting in the
// session's labelpool (0 if it has none).
func (m *Manager) QueuedSubmissions(id string) int {
	p := m.peekPool(id)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// kickDrain starts the pool's drain goroutine unless one is already
// running — single-flight per session, so concurrent enqueues never
// contend on the entry lock themselves.
func (m *Manager) kickDrain(p *labelPool) {
	p.mu.Lock()
	if p.draining || len(p.queue) == 0 {
		p.mu.Unlock()
		return
	}
	p.draining = true
	p.mu.Unlock()
	m.drainWG.Add(1)
	go func() {
		defer m.drainWG.Done()
		m.drainLoop(p)
	}()
}

// drainLoop applies queued rounds until the queue is empty or stalls
// on a gap. Each iteration is one entry-lock acquisition covering up
// to DrainBatch rounds.
func (m *Manager) drainLoop(p *labelPool) {
	for {
		progressed := m.drainOnce(p)
		p.mu.Lock()
		if len(p.queue) == 0 || !progressed {
			// Empty, or stalled on a gap / a dead session: park. The next
			// enqueue or direct submit kicks a fresh drain.
			p.draining = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// drainAcquire locks the session entry for the drain, retrying the
// transient capacity and store errors an unpark can hit. It ignores
// the manager's draining flag: Shutdown flushes the pools before
// checkpointing, and a ticketed submission must not be dropped because
// shutdown won the race.
func (m *Manager) drainAcquire(id string) (*entry, error) {
	ctx := context.Background() //etlint:ignore ctxflow the drain goroutine is detached by design: a ticketed submission must outlive its submitter's request context (see DESIGN §11)
	var err error
	for attempt := 0; attempt < 400; attempt++ {
		var e *entry
		e, err = m.acquireOpt(ctx, id, true)
		if err == nil {
			return e, nil
		}
		if !errors.Is(err, ErrStoreUnavailable) && !errors.Is(err, ErrTooManySessions) {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, err
}

// drainOnce applies one batch. It reports whether it made progress
// (applied or resolved at least one item); a false return with a
// non-empty queue means the drain should park.
func (m *Manager) drainOnce(p *labelPool) bool {
	e, err := m.drainAcquire(p.id)
	if err != nil {
		// The session is unreachable (not found, corrupt snapshot, ...):
		// fail every queued ticket so clients see why.
		p.mu.Lock()
		for _, it := range p.queue {
			p.resolveLocked(it.ticketID, TicketFailed, err)
		}
		p.queue = p.queue[:0]
		p.mu.Unlock()
		return false
	}
	defer e.mu.Unlock()

	// Resynchronize against the session under both locks: direct submits
	// may have advanced the round since enqueue.
	cur := e.sess.Rounds()
	var run []poolItem
	p.mu.Lock()
	keep := p.queue[:0]
	for _, it := range p.queue {
		switch {
		case it.round < cur:
			// The round landed while this item was queued (direct submit or
			// an earlier batch). An identical evidence replay is a success —
			// the idempotency contract — anything else lost the race.
			rec := e.sess.Records()[it.round]
			if labelsDigest(it.labeled, nil) == labelsDigest(rec.Labeled, rec.Revisions) {
				p.resolveLocked(it.ticketID, TicketApplied, nil)
			} else {
				p.resolveLocked(it.ticketID, TicketFailed,
					fmt.Errorf("%w: round %d was applied with different labels", ErrRoundMismatch, it.round))
			}
		case it.round == cur+len(run) && len(run) < m.opts.DrainBatch:
			run = append(run, it)
		default:
			keep = append(keep, it)
		}
	}
	p.queue = keep
	p.mu.Unlock()
	if len(run) == 0 {
		return false // gap: the next round isn't queued yet
	}

	batch := make([][]belief.Labeling, len(run))
	for i, it := range run {
		batch[i] = it.labeled
	}
	applied, serr := e.sess.SubmitBatch(context.Background(), batch) //etlint:ignore ctxflow ticketed rounds are applied by the detached drain; cancelling a submitter must not abort a batch other sessions' tickets ride on

	p.mu.Lock()
	for i := 0; i < applied; i++ {
		p.resolveLocked(run[i].ticketID, TicketApplied, nil)
	}
	if serr != nil && applied < len(run) {
		p.resolveLocked(run[applied].ticketID, TicketFailed, serr)
		if errors.Is(serr, game.ErrPoolExhausted) {
			// The session is complete: nothing queued can ever apply.
			for _, it := range run[applied+1:] {
				p.resolveLocked(it.ticketID, TicketFailed, serr)
			}
			for _, it := range p.queue {
				p.resolveLocked(it.ticketID, TicketFailed, serr)
			}
			p.queue = p.queue[:0]
		} else {
			// A later queued round may still apply once the failed round is
			// resubmitted; requeue the untouched tail.
			p.queue = append(p.queue, run[applied+1:]...)
			sort.Slice(p.queue, func(i, j int) bool { return p.queue[i].round < p.queue[j].round })
		}
	}
	p.mu.Unlock()

	if applied > 0 {
		m.notifyStreams(p.id)
		// The whole applied run rides one group commit (one append call,
		// one fsync shared with whatever other sessions' drains queued
		// meanwhile). Failure degrades the session and keeps the deltas
		// for the next flush, exactly like the direct-submit path.
		//etlint:ignore ctxflow ticketed rounds are persisted by the detached drain; a submitter's context must not abort a group commit other sessions ride on
		_ = m.flushWal(context.Background(), e)
	}
	return applied > 0 || serr != nil
}

// flushPools kicks a drain for every pool with queued work. Called by
// Shutdown before checkpointing (the caller waits on drainWG).
func (m *Manager) flushPools() {
	m.poolMu.Lock()
	pools := make([]*labelPool, 0, len(m.pools))
	for _, p := range m.pools {
		pools = append(pools, p)
	}
	m.poolMu.Unlock()
	for _, p := range pools {
		m.kickDrain(p)
	}
}
