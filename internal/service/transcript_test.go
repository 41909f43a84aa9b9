package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire_transcript.txt from the current server")

// wireGolden is the pinned transcript TestWireTranscript compares with.
const wireGolden = "testdata/wire_transcript.txt"

// wireRecorder drives one Server over HTTP and writes every request and
// its response into a transcript: a "> METHOD path body" line, then a
// "< status body" line with the body compacted, or one "< sse" line per
// stream frame.
type wireRecorder struct {
	t   *testing.T
	ts  *httptest.Server
	out *bytes.Buffer
}

func (w *wireRecorder) call(method, path string, body any) []byte {
	w.t.Helper()
	var req []byte
	if body != nil {
		var err error
		if req, err = json.Marshal(body); err != nil {
			w.t.Fatal(err)
		}
	}
	fmt.Fprintf(w.out, "> %s %s %s\n", method, path, req)
	r, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(req))
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := w.ts.Client().Do(r)
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		w.t.Fatal(err)
	}
	var flat bytes.Buffer
	if err := json.Compact(&flat, raw); err != nil {
		w.t.Fatalf("%s %s: body %q is not JSON: %v", method, path, raw, err)
	}
	fmt.Fprintf(w.out, "< %d %s\n", resp.StatusCode, flat.Bytes())
	return flat.Bytes()
}

// stream records the frames an SSE stream sends on attaching, up to its
// first heartbeat (or its end). lastEventID "" sends no header.
func (w *wireRecorder) stream(id, lastEventID string) {
	w.t.Helper()
	fmt.Fprintf(w.out, "> GET /v1/sessions/%s/rounds?stream=1 Last-Event-ID=%q\n", id, lastEventID)
	req, err := http.NewRequest("GET", w.ts.URL+"/v1/sessions/"+id+"/rounds?stream=1", nil)
	if err != nil {
		w.t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := w.ts.Client().Do(req)
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Fprintf(w.out, "< %d\n", resp.StatusCode)
	rd := bufio.NewReader(resp.Body)
	for {
		f, err := readFrame(rd)
		if err != nil || f.Comment != "" {
			return
		}
		fmt.Fprintf(w.out, "< sse event=%s id=%d data=%s\n", f.Event, f.ID, f.Data)
		if f.Event == "done" || f.Event == "error" || f.Event == "drain" {
			return
		}
	}
}

// transcriptLabels answers a round's pairs deterministically: a pair
// whose row indices sum to an even number marks one attribute, any
// other pair is labeled clean.
func transcriptLabels(pairs []PairView) []LabelingWire {
	labels := make([]LabelingWire, len(pairs))
	for i, p := range pairs {
		labels[i] = LabelingWire{Pair: [2]int{p.A, p.B}}
		if (p.A+p.B)%2 == 0 {
			labels[i].Marked = []int{(p.A + p.B) % 3}
		}
	}
	return labels
}

// next presents a round and returns its pairs.
func (w *wireRecorder) next(id string) []PairView {
	w.t.Helper()
	var next nextResponse
	if err := json.Unmarshal(w.call("POST", "/v1/sessions/"+id+"/next", nil), &next); err != nil {
		w.t.Fatal(err)
	}
	return next.Pairs
}

// play runs one next+submit cycle for round.
func (w *wireRecorder) play(id string, round int) []PairView {
	w.t.Helper()
	pairs := w.next(id)
	w.call("POST", "/v1/sessions/"+id+"/submit", SubmitRequest{Round: &round, Labels: transcriptLabels(pairs)})
	return pairs
}

// create makes a session and returns its id.
func (w *wireRecorder) create(req CreateRequest) string {
	w.t.Helper()
	var info Info
	if err := json.Unmarshal(w.call("POST", "/v1/sessions", req), &info); err != nil || info.ID == "" {
		w.t.Fatalf("create %+v: %v (%+v)", req, err, info)
	}
	return info.ID
}

// views records what a client can read of a session.
func (w *wireRecorder) views(id string) {
	w.t.Helper()
	w.call("GET", "/v1/sessions/"+id, nil)
	w.call("GET", "/v1/sessions/"+id+"/rounds", nil)
	w.call("GET", "/v1/sessions/"+id+"/belief?k=3", nil)
	w.call("GET", "/v1/sessions/"+id+"/repairs?tau=0.5", nil)
}

// script plays the transcript's sessions: fresh, live, revised,
// pending, evicted-then-unparked, labelpool, and sessions resumed from
// a live source (with a checkpoint, with a round pending, without a
// checkpoint) and from a parked one — without eval and with it.
func (w *wireRecorder) script() {
	for _, eval := range []bool{false, true} {
		base := uint64(41)
		if eval {
			base = 141
		}
		spec := func(i uint64) CreateRequest {
			return CreateRequest{Dataset: "OMDB", Rows: 60, K: 3, Seed: base + i, Eval: eval}
		}
		resume := func(i uint64, from string) CreateRequest {
			r := spec(i)
			r.Resume = from
			return r
		}

		fmt.Fprintf(w.out, "== fresh eval=%v\n", eval)
		fresh := w.create(spec(0))
		w.views(fresh)
		w.stream(fresh, "")

		fmt.Fprintf(w.out, "== live eval=%v\n", eval)
		live := w.create(spec(1))
		w.play(live, 0)
		w.play(live, 1)
		w.views(live)
		w.stream(live, "")
		w.stream(live, "0")
		w.stream(live, "2")
		w.call("POST", "/v1/sessions/"+live+"/snapshot", nil)

		fmt.Fprintf(w.out, "== revised eval=%v\n", eval)
		revised := w.create(spec(2))
		first := w.play(revised, 0)
		pairs := w.next(revised)
		labels := transcriptLabels(pairs)
		labels = append(labels, LabelingWire{Pair: [2]int{first[0].A, first[0].B}, Marked: []int{1, 2}})
		one := 1
		w.call("POST", "/v1/sessions/"+revised+"/submit", SubmitRequest{Round: &one, Labels: labels})
		w.views(revised)

		fmt.Fprintf(w.out, "== pending eval=%v\n", eval)
		pending := w.create(spec(3))
		w.play(pending, 0)
		w.next(pending)
		w.views(pending)
		w.stream(pending, "")
		w.call("POST", "/v1/sessions/"+pending+"/snapshot", nil)
		w.call("POST", "/v1/sessions/"+pending+"/next", nil)

		fmt.Fprintf(w.out, "== evicted eval=%v\n", eval)
		evicted := w.create(spec(4))
		w.play(evicted, 0)
		w.play(evicted, 1)
		w.next(evicted)
		w.call("DELETE", "/v1/sessions/"+evicted, nil)
		w.call("GET", "/v1/sessions/"+evicted, nil)
		w.call("GET", "/v1/sessions", nil)
		w.play(evicted, 2)
		w.views(evicted)
		w.stream(evicted, "0")

		fmt.Fprintf(w.out, "== labelpool eval=%v\n", eval)
		pool := w.create(spec(5))
		w.call("POST", "/v1/sessions/"+pool+"/submissions", EnqueueRequest{Submissions: []SubmissionWire{{Round: 1}, {Round: 0}}})
		w.call("POST", "/v1/sessions/"+pool+"/submissions", EnqueueRequest{Submissions: []SubmissionWire{{Round: 3}}})
		w.call("GET", "/v1/sessions/"+pool+"/submissions/t3", nil)
		w.call("POST", "/v1/sessions/"+pool+"/submissions", EnqueueRequest{Submissions: []SubmissionWire{{Round: 2}}})
		w.call("GET", "/v1/sessions/"+pool+"/submissions/t3", nil)
		w.call("GET", "/v1/sessions/"+pool+"/submissions/t1", nil)
		w.call("GET", "/v1/sessions/"+pool+"/rounds", nil)
		w.stream(pool, "2")

		fmt.Fprintf(w.out, "== resumed from a live source with a checkpoint eval=%v\n", eval)
		src := w.create(spec(6))
		w.play(src, 0)
		w.call("POST", "/v1/sessions/"+src+"/snapshot", nil)
		w.play(src, 1)
		fork := w.create(resume(6, src))
		w.views(fork)
		w.play(fork, 2)
		w.call("GET", "/v1/sessions/"+fork+"/rounds", nil)

		fmt.Fprintf(w.out, "== resumed from a live source with a round pending eval=%v\n", eval)
		busy := w.create(spec(8))
		w.play(busy, 0)
		w.call("POST", "/v1/sessions/"+busy+"/snapshot", nil)
		w.play(busy, 1)
		w.next(busy)
		fork = w.create(resume(8, busy))
		w.views(fork)
		w.play(fork, 2)
		two := 2
		w.call("POST", "/v1/sessions/"+busy+"/submit", SubmitRequest{Round: &two})

		fmt.Fprintf(w.out, "== resumed from a parked source eval=%v\n", eval)
		parked := w.create(spec(9))
		w.play(parked, 0)
		w.play(parked, 1)
		w.call("DELETE", "/v1/sessions/"+parked, nil)
		w.views(w.create(resume(9, parked)))
		w.call("GET", "/v1/sessions/"+parked, nil)
	}
	// Last, so that a fork minting an id or not shifts no other id.
	for _, eval := range []bool{false, true} {
		fmt.Fprintf(w.out, "== resumed from a live source without a checkpoint eval=%v\n", eval)
		req := CreateRequest{Dataset: "OMDB", Rows: 60, K: 3, Seed: 47, Eval: eval}
		bare := w.create(req)
		w.play(bare, 0)
		req.Resume = bare
		var fork Info
		if err := json.Unmarshal(w.call("POST", "/v1/sessions", req), &fork); err == nil && fork.ID != "" {
			w.views(fork.ID)
			w.play(fork.ID, 1)
		}
	}
	fmt.Fprintf(w.out, "== list\n")
	w.call("GET", "/v1/sessions", nil)
}

// TestWireTranscript pins the session API's wire bytes: a scripted
// client drives a Server over a MemStore and over a write-ahead log on
// a DirStore, and every response body — create, get, next, submit,
// rounds, SSE frames with and without Last-Event-ID, tickets, belief,
// repairs, list and snapshot — must equal testdata/wire_transcript.txt.
// Run with -update to re-pin after an intended wire change.
func TestWireTranscript(t *testing.T) {
	var out bytes.Buffer
	for _, backend := range []string{"memstore", "wal"} {
		fmt.Fprintf(&out, "### %s\n", backend)
		var store persist.Store
		if backend == "wal" {
			dir := t.TempDir()
			snaps, err := persist.NewDirStore(filepath.Join(dir, "snapshots"))
			if err != nil {
				t.Fatal(err)
			}
			ws, _, err := wal.OpenStore(snaps, filepath.Join(dir, "wal"), wal.StoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ws.Close() })
			store = ws
		}
		m := NewManager(Options{Store: store})
		ts := httptest.NewServer(NewServer(m, ServerOptions{StreamHeartbeat: 50 * time.Millisecond}))
		w := &wireRecorder{t: t, ts: ts, out: &out}
		w.script()
		ts.Close()
	}
	if *updateWire {
		if err := os.WriteFile(wireGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := bytes.Split(out.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(got), len(exp)); i++ {
			var g, e []byte
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if !bytes.Equal(g, e) {
				t.Fatalf("transcript differs from %s at line %d:\n got %.400s\nwant %.400s", wireGolden, i+1, g, e)
			}
		}
	}
}
