// Package persist serializes training-session state — the hypothesis
// space, both agents' beliefs, and the interaction history — as
// versioned JSON, so a session can be checkpointed, inspected, resumed,
// or replayed offline. Relations are not embedded (they can be large
// and already live in CSV files); the snapshot stores the schema so a
// reloaded session can validate it is paired with the right data.
package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/fd"
	"exptrain/internal/metrics"
	"exptrain/internal/stats"
)

// Version is the snapshot format version this package writes and the
// only one Read accepts. Version 2 appends a CRC-32 checksum footer
// after the JSON body so torn or bit-rotted checkpoints are detected on
// read instead of silently resuming a session from mangled state.
const Version = 2

// ErrCorrupt is the sentinel wrapped when snapshot bytes fail their
// checksum or do not parse — the bytes on disk are not a snapshot any
// writer produced. Test with errors.Is. Corrupt snapshots are never
// partially restored; DirStore.Scan quarantines them.
var ErrCorrupt = errors.New("persist: snapshot corrupt")

// Snapshot is the serializable state of one exploratory-training
// session.
type Snapshot struct {
	Version int      `json:"version"`
	Schema  []string `json:"schema"`
	// Space lists the hypothesis space in canonical order; belief
	// vectors index into it.
	Space []FDJSON `json:"space"`
	// Trainer and Learner are the agents' Beta parameters per
	// hypothesis.
	Trainer []BetaJSON `json:"trainer,omitempty"`
	Learner []BetaJSON `json:"learner,omitempty"`
	// History records every interaction's labelings.
	History []InteractionJSON `json:"history,omitempty"`
	// LearnerRNG, when present, holds the learner's sampler RNG state
	// (four xoshiro256** words) at checkpoint time, making resumption
	// draw-exact: the restored session presents exactly the pairs the
	// live one would have. Absent in snapshots from older writers, which
	// resume with a freshly seeded stream instead.
	LearnerRNG []uint64 `json:"learner_rng,omitempty"`
}

// RestoreLearnerRNG validates and returns the captured sampler RNG
// state. ok is false when the snapshot predates RNG capture.
func (s *Snapshot) RestoreLearnerRNG() (state [4]uint64, ok bool, err error) {
	if len(s.LearnerRNG) == 0 {
		return state, false, nil
	}
	if len(s.LearnerRNG) != len(state) {
		return state, false, fmt.Errorf("persist: learner_rng holds %d words, want %d", len(s.LearnerRNG), len(state))
	}
	copy(state[:], s.LearnerRNG)
	if state[0]|state[1]|state[2]|state[3] == 0 {
		return state, false, fmt.Errorf("persist: learner_rng is the invalid all-zero state")
	}
	return state, true, nil
}

// FDJSON is the wire form of an FD.
type FDJSON struct {
	LHS []int `json:"lhs"`
	RHS int   `json:"rhs"`
}

// BetaJSON is the wire form of a Beta distribution.
type BetaJSON struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
}

// LabelingJSON is the wire form of one annotation.
type LabelingJSON struct {
	Pair      [2]int `json:"pair"`
	Marked    []int  `json:"marked,omitempty"`
	Abstained bool   `json:"abstained,omitempty"`
}

// InteractionJSON is one interaction's labelings plus the optional
// per-round measurements. The measurement fields are omitempty: a
// history-only round serializes without them, and one written without
// them restores with zero measurements.
type InteractionJSON struct {
	Labeled []LabelingJSON `json:"labeled"`
	// Revisions are corrected labelings for pairs from earlier rounds.
	Revisions []LabelingJSON `json:"revisions,omitempty"`
	// MAE and Payoff are the round's measurements against the
	// annotator-side reference belief.
	MAE    float64 `json:"mae,omitempty"`
	Payoff float64 `json:"payoff,omitempty"`
	// Detection is the held-out detection score, present only when the
	// session ran with an evaluator.
	Detection *PRF1JSON `json:"detection,omitempty"`
}

// PRF1JSON is the wire form of a precision/recall/F1 score.
type PRF1JSON struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// Round is one submitted round's state as persisted: the labelings and
// revisions that were applied plus the measurements recorded for the
// round. Detection is nil when no evaluator scored the round.
type Round struct {
	Labeled   []belief.Labeling
	Revisions []belief.Labeling
	MAE       float64
	Payoff    float64
	Detection *metrics.PRF1
}

// FromFD converts an FD to wire form.
func FromFD(f fd.FD) FDJSON { return FDJSON{LHS: f.LHS.Attrs(), RHS: f.RHS} }

// ToFD converts wire form back, validating it.
func (j FDJSON) ToFD() (fd.FD, error) {
	var lhs fd.AttrSet
	for _, a := range j.LHS {
		if a < 0 || a >= fd.MaxAttrs {
			return fd.FD{}, fmt.Errorf("persist: LHS attribute %d out of range", a)
		}
		lhs = lhs.Add(a)
	}
	return fd.New(lhs, j.RHS)
}

// FromLabeling converts a labeling to wire form.
func FromLabeling(l belief.Labeling) LabelingJSON {
	return LabelingJSON{
		Pair:      [2]int{l.Pair.A, l.Pair.B},
		Marked:    l.Marked.Attrs(),
		Abstained: l.Abstained,
	}
}

// ToLabeling converts wire form back, validating the pair.
func (j LabelingJSON) ToLabeling() (belief.Labeling, error) {
	if j.Pair[0] == j.Pair[1] || j.Pair[0] < 0 || j.Pair[1] < 0 {
		return belief.Labeling{}, fmt.Errorf("persist: invalid pair %v", j.Pair)
	}
	var marked fd.AttrSet
	for _, a := range j.Marked {
		if a < 0 || a >= fd.MaxAttrs {
			return belief.Labeling{}, fmt.Errorf("persist: marked attribute %d out of range", a)
		}
		marked = marked.Add(a)
	}
	return belief.Labeling{
		Pair:      dataset.NewPair(j.Pair[0], j.Pair[1]),
		Marked:    marked,
		Abstained: j.Abstained,
	}, nil
}

// BeliefToJSON extracts an agent belief's Beta vector in wire form
// (nil belief → nil).
func BeliefToJSON(b *belief.Belief) []BetaJSON {
	if b == nil {
		return nil
	}
	out := make([]BetaJSON, b.Size())
	for i := range out {
		d := b.Dist(i)
		out[i] = BetaJSON{Alpha: d.Alpha, Beta: d.Beta}
	}
	return out
}

// NewSnapshot captures a session: the schema, the space, optional agent
// beliefs (either may be nil) and the labeling history. Measurements
// are left empty; use NewSnapshotRounds to persist full round records.
func NewSnapshot(schema *dataset.Schema, space *fd.Space, trainer, learner *belief.Belief, history [][]belief.Labeling) (*Snapshot, error) {
	rounds := make([]Round, len(history))
	for i, interaction := range history {
		rounds[i] = Round{Labeled: interaction}
	}
	return NewSnapshotRounds(schema, space, trainer, learner, rounds)
}

// NewSnapshotRounds captures a session with full per-round records:
// labelings, revisions and the round's measurements.
func NewSnapshotRounds(schema *dataset.Schema, space *fd.Space, trainer, learner *belief.Belief, rounds []Round) (*Snapshot, error) {
	if space == nil {
		return nil, fmt.Errorf("persist: nil hypothesis space")
	}
	if trainer != nil && trainer.Size() != space.Size() {
		return nil, fmt.Errorf("persist: trainer belief size %d does not match space %d", trainer.Size(), space.Size())
	}
	if learner != nil && learner.Size() != space.Size() {
		return nil, fmt.Errorf("persist: learner belief size %d does not match space %d", learner.Size(), space.Size())
	}
	snap := &Snapshot{Version: Version}
	if schema != nil {
		snap.Schema = schema.Names()
	}
	for _, f := range space.FDs() {
		snap.Space = append(snap.Space, FromFD(f))
	}
	snap.Trainer = BeliefToJSON(trainer)
	snap.Learner = BeliefToJSON(learner)
	for _, r := range rounds {
		snap.History = append(snap.History, FromRound(r))
	}
	return snap, nil
}

// FromRound converts one recorded round to its wire form — a snapshot
// history entry, or a round delta's interaction.
func FromRound(r Round) InteractionJSON {
	ij := InteractionJSON{MAE: r.MAE, Payoff: r.Payoff}
	for _, l := range r.Labeled {
		ij.Labeled = append(ij.Labeled, FromLabeling(l))
	}
	for _, l := range r.Revisions {
		ij.Revisions = append(ij.Revisions, FromLabeling(l))
	}
	if r.Detection != nil {
		ij.Detection = &PRF1JSON{
			Precision: r.Detection.Precision,
			Recall:    r.Detection.Recall,
			F1:        r.Detection.F1,
		}
	}
	return ij
}

// footerMagic opens the checksum footer — the last line of a Version-2
// snapshot file. The footer is itself one line of JSON so the file
// remains a plain JSON stream, but it is located positionally (last
// line, fixed prefix) so detection never depends on parsing a possibly
// corrupt body first.
const footerMagic = `{"footer":"crc32"`

// footerJSON is the wire form of the checksum footer.
type footerJSON struct {
	Footer string `json:"footer"`
	Sum    string `json:"sum"`
}

// Write serializes the snapshot as indented JSON followed by a one-line
// CRC-32 footer covering every body byte. The output is deterministic:
// Write∘Read is the identity on Write's output.
func (s *Snapshot) Write(w io.Writer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	if _, err := w.Write(appendFooter(buf.Bytes())); err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	return nil
}

// appendFooter appends the checksum footer line covering body, which
// ends in a newline.
func appendFooter(body []byte) []byte {
	return fmt.Appendf(body, footerMagic+`,"sum":"%08x"}`+"\n", crc32.ChecksumIEEE(body))
}

// WriteFile writes the snapshot to a file, fsyncing before close so the
// checkpoint survives a crash immediately after return.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := s.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	return f.Close()
}

// Read parses a snapshot, verifies its checksum footer, and validates
// its version. A missing or failed checksum and unparseable bytes come
// back as ErrCorrupt.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return decodeSnapshot(data)
}

// decodeSnapshot is Read over bytes already in memory.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	body, sum, err := splitChecksumFooter(data)
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: CRC-32 mismatch (footer %08x, body %08x)", ErrCorrupt, sum, got)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("%w: decoding snapshot: %v", ErrCorrupt, err)
	}
	if snap.Version != Version {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d (want %d)", snap.Version, Version)
	}
	return &snap, nil
}

// splitChecksumFooter separates the snapshot body from the checksum
// footer, which must be the last line and open with the footer magic.
// Anything else — no footer line (a torn write that lost it), or a
// malformed one — is ErrCorrupt.
func splitChecksumFooter(data []byte) (body []byte, sum uint32, err error) {
	trimmed := data
	if n := len(trimmed); n > 0 && trimmed[n-1] == '\n' {
		trimmed = trimmed[:n-1]
	}
	i := bytes.LastIndexByte(trimmed, '\n')
	last := trimmed[i+1:]
	if !bytes.HasPrefix(last, []byte(footerMagic)) {
		return nil, 0, fmt.Errorf("%w: missing checksum footer", ErrCorrupt)
	}
	var f footerJSON
	if uerr := json.Unmarshal(last, &f); uerr != nil || f.Footer != "crc32" {
		return nil, 0, fmt.Errorf("%w: malformed checksum footer %q", ErrCorrupt, last)
	}
	v, perr := strconv.ParseUint(f.Sum, 16, 32)
	if perr != nil {
		return nil, 0, fmt.Errorf("%w: malformed checksum %q", ErrCorrupt, f.Sum)
	}
	return data[:i+1], uint32(v), nil
}

// ReadFile parses a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// RestoreSpace rebuilds the hypothesis space.
func (s *Snapshot) RestoreSpace() (*fd.Space, error) {
	fds := make([]fd.FD, 0, len(s.Space))
	for _, j := range s.Space {
		f, err := j.ToFD()
		if err != nil {
			return nil, err
		}
		fds = append(fds, f)
	}
	return fd.NewSpace(fds)
}

// restoreBelief rebuilds one agent's belief over the space.
func restoreBelief(space *fd.Space, params []BetaJSON) (*belief.Belief, error) {
	if params == nil {
		return nil, nil
	}
	if len(params) != space.Size() {
		return nil, fmt.Errorf("persist: %d Beta parameters for a %d-FD space", len(params), space.Size())
	}
	b := belief.New(space, stats.NewBeta(1, 1))
	for i, p := range params {
		if !(p.Alpha > 0) || !(p.Beta > 0) {
			return nil, fmt.Errorf("persist: invalid Beta(%v,%v) at hypothesis %d", p.Alpha, p.Beta, i)
		}
		b.SetDist(i, stats.Beta{Alpha: p.Alpha, Beta: p.Beta})
	}
	return b, nil
}

// RestoreTrainer rebuilds the trainer belief (nil if absent).
func (s *Snapshot) RestoreTrainer(space *fd.Space) (*belief.Belief, error) {
	return restoreBelief(space, s.Trainer)
}

// RestoreLearner rebuilds the learner belief (nil if absent).
func (s *Snapshot) RestoreLearner(space *fd.Space) (*belief.Belief, error) {
	return restoreBelief(space, s.Learner)
}

// RestoreHistory rebuilds the labeling history.
func (s *Snapshot) RestoreHistory() ([][]belief.Labeling, error) {
	out := make([][]belief.Labeling, 0, len(s.History))
	for _, ij := range s.History {
		var interaction []belief.Labeling
		for _, lj := range ij.Labeled {
			l, err := lj.ToLabeling()
			if err != nil {
				return nil, err
			}
			interaction = append(interaction, l)
		}
		out = append(out, interaction)
	}
	return out, nil
}

// RestoreRounds rebuilds the full per-round records, including
// revisions and measurements.
func (s *Snapshot) RestoreRounds() ([]Round, error) {
	out := make([]Round, 0, len(s.History))
	for _, ij := range s.History {
		r := Round{MAE: ij.MAE, Payoff: ij.Payoff}
		for _, lj := range ij.Labeled {
			l, err := lj.ToLabeling()
			if err != nil {
				return nil, err
			}
			r.Labeled = append(r.Labeled, l)
		}
		for _, lj := range ij.Revisions {
			l, err := lj.ToLabeling()
			if err != nil {
				return nil, err
			}
			r.Revisions = append(r.Revisions, l)
		}
		if ij.Detection != nil {
			r.Detection = &metrics.PRF1{
				Precision: ij.Detection.Precision,
				Recall:    ij.Detection.Recall,
				F1:        ij.Detection.F1,
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// ValidateSchema checks a reloaded snapshot against the relation it is
// being paired with.
func (s *Snapshot) ValidateSchema(schema *dataset.Schema) error {
	if len(s.Schema) == 0 {
		return nil // snapshot did not record a schema
	}
	if schema.Arity() != len(s.Schema) {
		return fmt.Errorf("persist: snapshot schema has %d attributes, relation has %d", len(s.Schema), schema.Arity())
	}
	for i, name := range s.Schema {
		if schema.Name(i) != name {
			return fmt.Errorf("persist: snapshot attribute %d is %q, relation has %q", i, name, schema.Name(i))
		}
	}
	return nil
}
