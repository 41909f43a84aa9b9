package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"exptrain/internal/belief"
	"exptrain/internal/game"
)

// The labelpool is the batched admission path of the v1 API: clients
// POST whole windows of round submissions, each keyed by its round
// index (the session's nonce), and the request applies every round its
// window completes before it answers — observer events, belief updates
// and the round append amortize across the window instead of costing
// one lock round-trip per round.
//
// The shape is a transaction pool keyed by nonce: the queue is kept
// sorted by round, an apply takes only the consecutive run starting at
// the session's current round, and a gap leaves the rest queued until
// the missing round arrives (via another enqueue or a direct submit,
// which applies the run it completes). Enqueue validation is
// all-or-nothing and cheap — pair membership against the relation,
// label domain against the schema, duplicate-round against the queue —
// so a rejected batch leaves no partial state.

// Submission is one queued round: the labels to apply when the session
// reaches Round.
type Submission struct {
	Round  int
	Labels []belief.Labeling
}

// TicketState is a submission ticket's lifecycle state.
type TicketState string

const (
	// TicketQueued: accepted and waiting behind a gap — an earlier round
	// has not been submitted yet. It applies in the request that fills
	// the gap.
	TicketQueued TicketState = "queued"
	// TicketApplied: the round was applied to the session (or was an
	// identical replay of an already-applied round), and its append to
	// the store returned.
	TicketApplied TicketState = "applied"
	// TicketFailed: the round could not be applied; Error says why. The
	// round slot is free again — enqueue a corrected submission.
	TicketFailed TicketState = "failed"
)

// Ticket is the receipt for one submission, returned by the enqueue and
// polled on GET /v1/sessions/{id}/submissions/{ticket}.
type Ticket struct {
	ID    string      `json:"id"`
	Round int         `json:"round"`
	State TicketState `json:"state"`
	Error string      `json:"error,omitempty"`
}

// ticketHistory bounds how many terminal tickets a pool remembers;
// older ones age out FIFO and then poll as ErrTicketNotFound.
const ticketHistory = 256

// poolItem is one queued submission with its ticket's sequence number.
type poolItem struct {
	round   int
	labeled []belief.Labeling
	ticket  uint64
}

// ticketRec is one remembered ticket, stored by value: the ticket with
// id "t<seq>" for round, in state, with err's reason once it failed.
type ticketRec struct {
	seq   uint64
	round int
	state TicketState
	err   string
}

// ticket renders the record as the receipt clients see.
func (r *ticketRec) ticket() Ticket {
	return Ticket{ID: "t" + strconv.FormatUint(r.seq, 10), Round: r.round, State: r.state, Error: r.err}
}

// parseTicketID returns the sequence number a ticket id names. Ids are
// minted canonical — "t" and the number in decimal, without sign or
// leading zeros — and any other spelling names no ticket.
func parseTicketID(id string) (uint64, bool) {
	digits, ok := strings.CutPrefix(id, "t")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || strconv.FormatUint(seq, 10) != digits {
		return 0, false
	}
	return seq, true
}

// labelPool is one session's admission queue. Only a holder of the
// session's entry lock changes the queue or resolves a ticket, so
// enqueues and applies are serialized per session; mu lets ticket polls
// and health reads see the pool without waiting on that lock. Lock
// order: an entry lock may be taken before pool.mu, never the reverse.
type labelPool struct {
	mu sync.Mutex
	// queue holds pending submissions sorted by round; guarded by mu.
	// Between requests it holds only rounds waiting behind a gap.
	queue []poolItem
	// tickets holds every remembered ticket in seq order, which is the
	// order they were minted and the order they age out; guarded by mu.
	tickets []ticketRec
	// seq numbers tickets; guarded by mu.
	seq uint64
}

// newTicketLocked mints a queued ticket and returns its sequence
// number, aging out the oldest terminal tickets beyond ticketHistory.
func (p *labelPool) newTicketLocked(round int) uint64 {
	p.seq++
	p.tickets = append(p.tickets, ticketRec{seq: p.seq, round: round, state: TicketQueued})
	for len(p.tickets) > ticketHistory {
		drop := slices.IndexFunc(p.tickets, func(t ticketRec) bool { return t.state != TicketQueued })
		if drop < 0 {
			break // everything queued (bounded by MaxQueuedSubmissions)
		}
		p.tickets = slices.Delete(p.tickets, drop, drop+1)
	}
	return p.seq
}

// ticketLocked finds a remembered ticket by its sequence number.
func (p *labelPool) ticketLocked(seq uint64) (*ticketRec, bool) {
	i, ok := slices.BinarySearchFunc(p.tickets, seq, func(t ticketRec, seq uint64) int { return cmp.Compare(t.seq, seq) })
	if !ok {
		return nil, false
	}
	return &p.tickets[i], true
}

// resolveLocked moves a ticket to its terminal state: applied when err
// is nil, failed with err's reason otherwise.
func (p *labelPool) resolveLocked(seq uint64, err error) {
	t, ok := p.ticketLocked(seq)
	if !ok {
		return
	}
	t.state = TicketApplied
	if err != nil {
		t.state = TicketFailed
		t.err = err.Error()
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
		p = &labelPool{}
		m.pools[id] = p
	}
	return p
}

// EnqueueSubmissions admits a batch of round submissions into the
// session's labelpool, applies every queued round the batch completes
// (applyQueued), and returns one ticket per submission: applied,
// failed, or queued behind a gap. Validation is all-or-nothing: no
// round may be negative and no batch may exceed the queue bound
// (ErrBadRequest — such a batch could never be admitted, so it is
// refused before the session is touched, and a parked session stays
// parked), no submission may collide with a queued or in-batch round
// (ErrDuplicateRound), every labeling must reference in-relation rows
// and in-schema attributes, and the batch must fit beside the rounds
// already queued behind a gap (ErrSubmissionBacklog). On any failure
// nothing is queued and no ticket is issued. A round behind the
// session's current round is admitted and resolved under the
// idempotency contract: an identical evidence replay of what that
// round recorded resolves applied, anything else fails its ticket with
// a round-mismatch reason. The entry lock is held from admission to the
// answer, so Shutdown's per-session lock orders it like any request.
func (m *Manager) EnqueueSubmissions(ctx context.Context, id string, subs []Submission) ([]Ticket, error) {
	if len(subs) == 0 {
		return nil, badRequest(errors.New("empty submission batch"))
	}
	if len(subs) > m.opts.MaxQueuedSubmissions {
		return nil, badRequest(fmt.Errorf("batch of %d exceeds the queue bound of %d", len(subs), m.opts.MaxQueuedSubmissions))
	}
	for _, s := range subs {
		if err := checkRound(s.Round); err != nil {
			return nil, err
		}
	}
	e, err := m.acquire(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	rows := e.sess.Relation().NumRows()
	arity := e.sess.Relation().Schema().Arity()
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
	issued := make([]uint64, len(subs))
	for i, s := range subs {
		issued[i] = p.newTicketLocked(s.Round)
		p.queue = append(p.queue, poolItem{round: s.Round, labeled: s.Labels, ticket: issued[i]})
	}
	sort.Slice(p.queue, func(i, j int) bool { return p.queue[i].round < p.queue[j].round })
	p.mu.Unlock()

	m.applyQueued(ctx, e)

	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Ticket, len(issued))
	for i, seq := range issued {
		// Aging runs only when a ticket is minted and skips queued ones;
		// only this request, under the entry lock, mints, and its
		// tickets were all queued while it did.
		t, _ := p.ticketLocked(seq)
		out[i] = t.ticket()
	}
	return out, nil
}

// checkRound rejects a negative round index: it names no round.
func checkRound(round int) error {
	if round < 0 {
		return badRequest(fmt.Errorf("round %d is negative", round))
	}
	return nil
}

// validateLabels is the cheap up-front admission check: row indices in
// the relation, marked attributes in the schema, no duplicate pairs.
// What it cannot check — whether a pair will be presented in that
// round — is the apply's job (unpresented pairs become revisions or
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

// applyQueued is the one apply path behind every acknowledgement. It
// resolves queued rounds the session has already passed by the
// idempotency digest, applies the queued run that starts at the
// current round with one SubmitBatch, and makes every recorded round —
// the caller's own included — durable with flushWal. Only then does it
// resolve tickets and wake the session's streams, so no ticket reads
// applied and no SSE frame announces a round before the round's append
// returned. A failed append degrades the session (flushWal) instead of
// failing rounds that already applied. Caller holds e.mu.
func (m *Manager) applyQueued(ctx context.Context, e *entry) {
	// Keep the request's values but not its cancellation: once a ticket
	// is issued or a round applied, a client that hangs up must not
	// strand the ticket or cut the append short. The work is bounded by
	// the queue bound.
	ctx = context.WithoutCancel(ctx)
	p := m.peekPool(e.id)
	var items []poolItem
	if p != nil {
		p.mu.Lock()
		items = append(items, p.queue...)
		p.mu.Unlock()
	}

	type outcome struct {
		ticket uint64
		err    error // nil: applied
	}
	var done []outcome
	var run, tail, rest []poolItem
	cur := e.sess.Rounds()
	for _, it := range items { // sorted by round
		switch {
		case it.round < cur:
			done = append(done, outcome{it.ticket, replayErr(e, it.round, it.labeled)})
		case it.round == cur+len(run):
			run = append(run, it)
		default:
			rest = append(rest, it)
		}
	}
	if len(run) > 0 {
		batch := make([][]belief.Labeling, len(run))
		for i, it := range run {
			batch[i] = it.labeled
		}
		applied, err := e.sess.SubmitBatch(ctx, batch)
		exhausted := errors.Is(err, game.ErrPoolExhausted)
		for i, it := range run {
			switch {
			case i < applied:
				done = append(done, outcome{it.ticket, nil})
			case i == applied || exhausted:
				done = append(done, outcome{it.ticket, err})
			default:
				// A later round may still apply once the failed round
				// is resubmitted.
				tail = append(tail, it)
			}
		}
		if exhausted {
			// The session is complete: nothing queued can ever apply.
			for _, it := range rest {
				done = append(done, outcome{it.ticket, err})
			}
			rest = nil
		}
	}

	_ = m.flushWal(ctx, e)
	if p != nil {
		p.mu.Lock()
		for _, o := range done {
			p.resolveLocked(o.ticket, o.err)
		}
		p.queue = append(tail, rest...)
		p.mu.Unlock()
	}
	m.notifyStreams(e.id)
}

// Ticket reports the state of one submission.
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
	seq, ok := parseTicketID(ticketID)
	if !ok {
		return Ticket{}, fmt.Errorf("%w: %q", ErrTicketNotFound, ticketID)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.ticketLocked(seq)
	if !ok {
		return Ticket{}, fmt.Errorf("%w: %q", ErrTicketNotFound, ticketID)
	}
	return t.ticket(), nil
}

// peekPool returns the session's labelpool without creating one.
func (m *Manager) peekPool(id string) *labelPool {
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	return m.pools[id]
}
