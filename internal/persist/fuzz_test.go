package persist

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"exptrain/internal/stats"
)

// TestReadNeverPanicsOnGarbage: arbitrary byte soup must come back as
// an error, never a panic — checkpoints arrive from disk and may be
// truncated or corrupted.
func TestReadNeverPanicsOnGarbage(t *testing.T) {
	rng := stats.NewRNG(777)
	f := func(lenRaw uint8) bool {
		n := int(lenRaw % 200)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		snap, err := Read(strings.NewReader(string(buf)))
		// Either a parse error, or a valid-version snapshot whose
		// restore paths must also not panic.
		if err != nil {
			return true
		}
		_, _ = snap.RestoreSpace()
		_, _ = snap.RestoreHistory()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotDecode: native fuzzing over the checkpoint decode path.
// Arbitrary bytes must come back as an error, never a panic. The input
// is then framed as a snapshot body under a valid checksum footer, so
// the fuzzer reaches the JSON decode and the restore paths: any body
// that decodes must survive every restore path and round-trip through
// Write/Read to a stable canonical form (Write∘Read is idempotent on
// Write's output).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":2,"schema":["a","b"],"space":[{"lhs":[0],"rhs":1}],` +
		`"trainer":[{"alpha":2,"beta":3}],"learner":[{"alpha":1,"beta":1}],` +
		`"history":[{"labeled":[{"pair":[0,1],"marked":[1]}],"mae":0.25,"payoff":1.5,` +
		`"detection":{"precision":1,"recall":0.5,"f1":0.6666666666666666}}]}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"history":[{"revisions":[{"pair":[0,2],"abstained":true}]}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Read(bytes.NewReader(data)) // unframed: must not panic
		snap, err := Read(bytes.NewReader(framed(string(data))))
		if err != nil {
			return // rejected cleanly
		}
		// Every restore path must tolerate whatever decoded.
		if space, err := snap.RestoreSpace(); err == nil {
			if _, err := snap.RestoreTrainer(space); err != nil {
				_ = err
			}
			if _, err := snap.RestoreLearner(space); err != nil {
				_ = err
			}
		}
		_, _ = snap.RestoreHistory()
		_, _ = snap.RestoreRounds()

		// Canonical round-trip: write, re-read, write again — the two
		// serializations must be byte-identical.
		var first bytes.Buffer
		if err := snap.Write(&first); err != nil {
			t.Fatalf("writing decoded snapshot: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written snapshot: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatalf("re-writing snapshot: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form unstable:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzSnapshotChecksum: flip one byte anywhere in a canonical encoded
// snapshot. The decode must return ErrCorrupt or a valid snapshot —
// never panic, and never quietly hand back a half-parsed body under a
// non-corruption error. An unflipped decode must round-trip
// byte-identically.
func FuzzSnapshotChecksum(f *testing.F) {
	snap := &Snapshot{
		Version: Version,
		Schema:  []string{"a", "b", "c"},
		Space:   []FDJSON{{LHS: []int{0}, RHS: 1}, {LHS: []int{0, 2}, RHS: 1}},
		Trainer: []BetaJSON{{Alpha: 2, Beta: 3}, {Alpha: 10, Beta: 1}},
		Learner: []BetaJSON{{Alpha: 1, Beta: 1}, {Alpha: 0.5, Beta: 7.25}},
		History: []InteractionJSON{{Labeled: []LabelingJSON{{Pair: [2]int{0, 1}, Marked: []int{1}}}}},
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		f.Fatal(err)
	}
	enc := buf.Bytes()

	f.Add(uint32(0), byte(0))             // unflipped round-trip
	f.Add(uint32(10), byte(0x01))         // body flip
	f.Add(uint32(len(enc)-2), byte(0x80)) // footer flip
	f.Add(uint32(len(enc)-1), byte(0x2a)) // trailing newline flip
	f.Fuzz(func(t *testing.T, pos uint32, x byte) {
		data := append([]byte(nil), enc...)
		i := int(pos) % len(data)
		data[i] ^= x
		got, err := Read(bytes.NewReader(data))
		if x == 0 {
			if err != nil {
				t.Fatalf("unflipped snapshot rejected: %v", err)
			}
			var out bytes.Buffer
			if err := got.Write(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), enc) {
				t.Fatalf("unflipped round-trip not byte-identical:\nin:\n%s\nout:\n%s", enc, out.Bytes())
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d (xor %#x): error %v is not ErrCorrupt", i, x, err)
			}
			return
		}
		// The flip slipped through the checksum (e.g. a whitespace-
		// equivalent trailing byte): the result must still be a snapshot
		// every restore path tolerates.
		if space, serr := got.RestoreSpace(); serr == nil {
			_, _ = got.RestoreTrainer(space)
			_, _ = got.RestoreLearner(space)
		}
		_, _ = got.RestoreHistory()
	})
}

// TestReadStructuredCorruption: syntactically valid JSON with invalid
// content errors cleanly on restore.
func TestReadStructuredCorruption(t *testing.T) {
	cases := []string{
		`{"version":2,"space":[{"lhs":[99],"rhs":1}]}`,                    // attr out of range
		`{"version":2,"space":[{"lhs":[],"rhs":1}]}`,                      // empty LHS
		`{"version":2,"space":[{"lhs":[0],"rhs":-5}]}`,                    // RHS out of range
		`{"version":2,"space":[{"lhs":[0],"rhs":1},{"lhs":[0],"rhs":1}]}`, // duplicate FD
	}
	for _, c := range cases {
		snap, err := Read(bytes.NewReader(framed(c)))
		if err != nil {
			t.Fatalf("parse of %q failed: %v", c, err)
		}
		if _, err := snap.RestoreSpace(); err == nil {
			t.Errorf("restore of %q should error", c)
		}
	}
}

// TestHistoryCorruption: degenerate pairs and bad marks error cleanly.
func TestHistoryCorruption(t *testing.T) {
	cases := []string{
		`{"version":2,"history":[{"labeled":[{"pair":[2,2]}]}]}`,
		`{"version":2,"history":[{"labeled":[{"pair":[-1,3]}]}]}`,
		`{"version":2,"history":[{"labeled":[{"pair":[0,1],"marked":[70]}]}]}`,
	}
	for _, c := range cases {
		snap, err := Read(bytes.NewReader(framed(c)))
		if err != nil {
			t.Fatalf("parse of %q failed: %v", c, err)
		}
		if _, err := snap.RestoreHistory(); err == nil {
			t.Errorf("restore of %q should error", c)
		}
	}
}
