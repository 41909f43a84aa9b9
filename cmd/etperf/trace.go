package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark's own code around the calls it makes into each layer's
// public functions (client calls, the HTTP handler, the store, the
// engine's observer events) and linked into trees after the run.
type span struct {
	Name  string `json:"name"`
	Sess  string `json:"session,omitempty"`
	Round int    `json:"round"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
	// Parent indexes the enclosing span (-1 for a root). A span that
	// runs outside every request — a labelpool drain's append, a
	// compactor's fold — names its owner in ParentName instead.
	Parent     int    `json:"parent"`
	ParentName string `json:"parent_name,omitempty"`
	// Self is the span's duration minus the part its children cover.
	Self int64 `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs measure with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	// spans are the recorded spans in completion order; guarded by mu.
	spans []span
	// off stops recording during set-up and tear-down; guarded by mu.
	off bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), off: true} }

// enable switches recording on or off.
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.off = !on
	t.mu.Unlock()
}

// add records one span. round is -1 when the recording layer does not
// know it; linking copies it from the span's root.
func (t *tracer) add(name, sess string, round int, start, end time.Time, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.off {
		t.spans = append(t.spans, span{
			Name: name, Sess: sess, Round: round, Bytes: bytes, Parent: -1,
			Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		})
	}
	t.mu.Unlock()
}

// since records a span that ends now.
func (t *tracer) since(name, sess string, round int, start time.Time) {
	t.add(name, sess, round, start, time.Now(), 0)
}

// spanLevels orders span names from the outermost (a client request or
// a replayed game) inward; a span's parent is the innermost span of a
// lower level, of the same session, whose interval contains it.
var spanLevels = map[string]int{
	"client.round": 0, "client.window": 0, "client.create": 0, "client.evict": 0,
	"replay.session": 0, "mirror.game": 0,
	"client.next": 1, "client.submit": 1, "client.enqueue": 1, "replay.round": 1, "datagen.generate": 1,
	"errgen.inject": 1, "fd.space": 1, "belief.prior": 1, "sampling.pool": 1, "game.session": 1,
	"game.select": 2, "game.update": 2, "game.score": 2, "agents.trainer": 2,
}

func levelOf(name string) int {
	if l, ok := spanLevels[name]; ok {
		return l
	}
	switch {
	case strings.HasPrefix(name, "http."):
		return 2
	case strings.HasPrefix(name, "wal."):
		return 3
	case strings.HasPrefix(name, "persist."):
		return 4
	}
	return 0
}

// link assigns every span its parent, its round and its self time, and
// returns the spans. Call it once recording has finished.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	bySess := make(map[string][]int)
	for i := range s {
		bySess[s[i].Sess] = append(bySess[s[i].Sess], i)
	}
	for _, idx := range bySess {
		sort.Slice(idx, func(a, b int) bool {
			x, y := s[idx[a]], s[idx[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if lx, ly := levelOf(x.Name), levelOf(y.Name); lx != ly {
				return lx < ly
			}
			return x.End > y.End
		})
		var open []int
		for _, i := range idx {
			lvl := levelOf(s[i].Name)
			for len(open) > 0 {
				p := s[open[len(open)-1]]
				if p.Start <= s[i].Start && s[i].End <= p.End && levelOf(p.Name) < lvl {
					break
				}
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				s[i].Parent = open[len(open)-1]
			}
			open = append(open, i)
		}
	}
	children := make([][]int, len(s))
	for i := range s {
		p := s[i].Parent
		switch {
		case p >= 0:
			children[p] = append(children[p], i)
		case levelOf(s[i].Name) == 0:
		case strings.HasPrefix(s[i].Name, "persist."):
			s[i].ParentName = "wal.compactor"
		case strings.HasPrefix(s[i].Name, "wal."):
			s[i].ParentName = "labelpool.drain"
		}
	}
	for i := range s {
		if s[i].Round < 0 {
			r := i
			for s[r].Parent >= 0 {
				r = s[r].Parent
			}
			s[i].Round = s[r].Round
		}
		s[i].Self = s[i].dur() - covered(s, s[i], children[i])
	}
	return s
}

// covered measures how much of parent's interval the children's
// intervals cover, counting overlaps once.
func covered(s []span, parent span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(s[k].Start, parent.Start), min(s[k].End, parent.End)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, hi int64 = 0, parent.Start
	for _, v := range iv {
		lo := max(v[0], hi)
		if v[1] > lo {
			total += v[1] - lo
			hi = v[1]
		}
	}
	return total
}

// durations returns the durations in milliseconds of the spans named
// name that keep returns true for (keep may be nil).
func durations(s []span, name string, keep func(span) bool) []float64 {
	var out []float64
	for _, sp := range s {
		if sp.Name == name && (keep == nil || keep(sp)) {
			out = append(out, float64(sp.dur())/1e6)
		}
	}
	return out
}

// unattributed is the share of the named root spans' time that no
// child span covers.
func unattributed(s []span, root string) float64 {
	var self, total int64
	for _, sp := range s {
		if sp.Name == root {
			self += sp.Self
			total += sp.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
