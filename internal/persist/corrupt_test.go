package persist

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeFixture returns a Version-2 snapshot and its canonical encoding.
func encodeFixture(t *testing.T) (*Snapshot, []byte) {
	t.Helper()
	schema, space, trainer, learner, history := fixture(t)
	snap, err := NewSnapshot(schema, space, trainer, learner, history)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return snap, buf.Bytes()
}

// framed frames a hand-written JSON snapshot body the way Write does:
// the body, newline-terminated, then its checksum footer line.
func framed(body string) []byte {
	b := []byte(body)
	if len(b) == 0 || b[len(b)-1] != '\n' {
		b = append(b, '\n')
	}
	return appendFooter(b)
}

func TestWriteAppendsVerifiableFooter(t *testing.T) {
	_, enc := encodeFixture(t)
	trimmed := strings.TrimSuffix(string(enc), "\n")
	i := strings.LastIndexByte(trimmed, '\n')
	last := trimmed[i+1:]
	if !strings.HasPrefix(last, footerMagic) {
		t.Fatalf("last line %q does not open with the footer magic", last)
	}
	body, sum, err := splitChecksumFooter(enc)
	if err != nil {
		t.Fatalf("splitChecksumFooter: %v", err)
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		t.Fatalf("footer sum %08x does not match body %08x", sum, got)
	}
}

func TestChecksumDetectsBitFlips(t *testing.T) {
	_, enc := encodeFixture(t)
	// Flip a spread of positions across body and footer. Every flip must
	// surface as ErrCorrupt or (rarely, e.g. a whitespace-equivalent
	// trailing byte) decode to a valid snapshot — never a quiet wrong
	// answer from a half-parsed body, never a panic.
	for pos := 0; pos < len(enc); pos += 7 {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			data := append([]byte(nil), enc...)
			data[pos] ^= x
			snap, err := Read(bytes.NewReader(data))
			if err == nil {
				// Accept only if the decode round-trips to a canonical form.
				var buf bytes.Buffer
				if werr := snap.Write(&buf); werr != nil {
					t.Fatalf("pos %d xor %#x: decoded snapshot does not re-encode: %v", pos, x, werr)
				}
				continue
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("pos %d xor %#x: error %v is not ErrCorrupt", pos, x, err)
			}
		}
	}
}

func TestTruncatedSnapshotIsCorrupt(t *testing.T) {
	_, enc := encodeFixture(t)
	body, _, err := splitChecksumFooter(enc)
	if err != nil {
		t.Fatal(err)
	}
	// A prefix is what a torn write leaves. Every one must be rejected as
	// corrupt — including the cut that removes exactly the footer line,
	// which leaves a well-formed but unverifiable body.
	cuts := []int{len(body)}
	for _, frac := range []float64{0.25, 0.5, 0.9, 0.99} {
		cuts = append(cuts, int(frac*float64(len(enc))))
	}
	for _, n := range cuts {
		if _, err := Read(bytes.NewReader(enc[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d/%d bytes: err = %v, want ErrCorrupt", n, len(enc), err)
		}
	}
}

func TestVerifyAndScanQuarantine(t *testing.T) {
	ctx := context.Background()
	snap, _ := encodeFixture(t)
	dirPath := t.TempDir()
	store, err := NewDirStore(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"good", "bad"} {
		if err := store.Put(ctx, id, snap); err != nil {
			t.Fatal(err)
		}
	}
	// Rot a byte in the middle of "bad" on disk, behind the store's back.
	badPath := filepath.Join(dirPath, "bad"+snapExt)
	raw, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Leave an orphaned temp from a "crashed writer" too.
	if err := os.WriteFile(filepath.Join(dirPath, ".bad.tmp-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := store.Verify(ctx, "good"); err != nil {
		t.Fatalf("Verify(good) = %v", err)
	}
	if err := store.Verify(ctx, "bad"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify(bad) = %v, want ErrCorrupt", err)
	}
	if err := store.Verify(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Verify(absent) = %v, want ErrNotFound", err)
	}

	res, err := store.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OK) != 1 || res.OK[0] != "good" {
		t.Fatalf("Scan OK = %v, want [good]", res.OK)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != "bad" {
		t.Fatalf("Scan Quarantined = %v, want [bad]", res.Quarantined)
	}
	if res.TempsRemoved != 1 {
		t.Fatalf("Scan TempsRemoved = %d, want 1", res.TempsRemoved)
	}
	// The quarantined bytes survive for forensics; the live name is gone.
	if _, err := os.Stat(filepath.Join(dirPath, "bad"+corruptExt)); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := store.Get(ctx, "bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(bad) after quarantine = %v, want ErrNotFound", err)
	}
	ids, err := store.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "good" {
		t.Fatalf("List = %v, want [good]", ids)
	}
	// A fresh Put may reuse the quarantined id.
	if err := store.Put(ctx, "bad", snap); err != nil {
		t.Fatal(err)
	}
	if err := store.Verify(ctx, "bad"); err != nil {
		t.Fatalf("Verify after re-Put: %v", err)
	}
}

// Verify reads and checksums the snapshot under id without keeping it:
// nil when intact, ErrNotFound when absent, ErrCorrupt when the bytes
// fail their checksum or do not parse.
func (s *DirStore) Verify(ctx context.Context, id string) error {
	_, err := s.Get(ctx, id)
	return err
}
