// Package repair turns a learned approximate-FD model into concrete
// data repairs — the downstream application the paper's use case
// motivates (§A.1 cites Holistic data cleaning, HoloClean and optimal
// FD repairs as consumers of the learned dependencies).
//
// The repair model is the standard minority-to-plurality rule: for each
// believed FD X → A and each group of tuples agreeing on X, the
// plurality A-value is presumed correct and rare deviating cells are
// suggested to change to it. Suggestions carry a confidence combining
// the FD's believed confidence with the within-group majority margin;
// conflicting suggestions for one cell are resolved by confidence.
package repair

import (
	"fmt"
	"sort"

	"exptrain/internal/dataset"
	"exptrain/internal/fd"
)

// Suggestion is one proposed cell repair.
type Suggestion struct {
	// Row and Attr identify the cell.
	Row, Attr int
	// Old is the current (suspect) value; New the proposed one.
	Old, New string
	// Confidence combines the FD's believed confidence with the
	// within-group majority margin, in (0, 1].
	Confidence float64
	// Source is the FD that produced the suggestion.
	Source fd.FD
}

// BelievedFD pairs a dependency with the model's confidence in it.
type BelievedFD struct {
	FD         fd.FD
	Confidence float64
}

// Config tunes suggestion generation.
type Config struct {
	// MinorityFraction bounds how large a deviating value class may be,
	// relative to its group, and still be repaired (default 0.25,
	// matching fd.MinorityRows' threshold).
	MinorityFraction float64
	// MinConfidence drops suggestions below this combined confidence
	// (default 0.5).
	MinConfidence float64
	// MaxRepairsPerRow caps how many cells of one tuple may be repaired
	// (default 1). FD repairs on the same row usually describe the SAME
	// underlying error seen through different dependencies — e.g. with
	// a↔b both directions believed, a corrupted b cell yields one
	// (correct) suggestion on b via a→b and one (wrong) on a via b→a;
	// applying both would corrupt the row further. Keeping only the
	// highest-confidence repair per row implements the one-error-per-
	// tuple reading of the paper's Example 2. Set negative for
	// unlimited.
	MaxRepairsPerRow int
}

func (c Config) withDefaults() Config {
	if c.MinorityFraction <= 0 {
		c.MinorityFraction = 0.25
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = 0.5
	}
	if c.MaxRepairsPerRow == 0 {
		c.MaxRepairsPerRow = 1
	}
	return c
}

// Suggest generates cell repairs for every believed FD, resolving
// conflicts (two FDs proposing different values for one cell) toward
// the higher-confidence suggestion. The result is sorted by row, then
// attribute.
func Suggest(rel *dataset.Relation, believed []BelievedFD, cfg Config) ([]Suggestion, error) {
	cfg = cfg.withDefaults()
	best := make(map[fd.Cell]Suggestion)
	for _, bf := range believed {
		if bf.Confidence <= 0 || bf.Confidence > 1 {
			return nil, fmt.Errorf("repair: FD %v confidence %v out of (0,1]", bf.FD, bf.Confidence)
		}
		for _, s := range suggestForFD(rel, bf, cfg) {
			cell := fd.Cell{Row: s.Row, Attr: s.Attr}
			if cur, ok := best[cell]; !ok || s.Confidence > cur.Confidence {
				best[cell] = s
			}
		}
	}
	all := make([]Suggestion, 0, len(best))
	for _, s := range best {
		all = append(all, s)
	}
	// Per-row conflict resolution. Competing suggestions on one row
	// usually describe the same underlying error seen through different
	// FDs; the causal cell is the one implicated by the *most* violated
	// dependencies (a corrupted LHS value breaks every FD reading it,
	// while a downstream RHS repair explains only its own FD). Rank by
	// that explanation score, then confidence, then attribute.
	score := explanationScores(rel, believed, all)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Row != all[j].Row {
			return all[i].Row < all[j].Row
		}
		ci := fd.Cell{Row: all[i].Row, Attr: all[i].Attr}
		cj := fd.Cell{Row: all[j].Row, Attr: all[j].Attr}
		if score[ci] != score[cj] {
			return score[ci] > score[cj]
		}
		if all[i].Confidence != all[j].Confidence {
			return all[i].Confidence > all[j].Confidence
		}
		return all[i].Attr < all[j].Attr
	})
	var out []Suggestion
	perRow := 0
	for i, s := range all {
		if i > 0 && s.Row != all[i-1].Row {
			perRow = 0
		}
		if cfg.MaxRepairsPerRow > 0 && perRow >= cfg.MaxRepairsPerRow {
			continue
		}
		out = append(out, s)
		perRow++
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Attr < out[j].Attr
	})
	return out, nil
}

// explanationScores counts, for every suggested cell, the believed FDs
// that both mention the cell's attribute and flag the cell's row as a
// minority deviation — how many observed violations that single repair
// would explain.
func explanationScores(rel *dataset.Relation, believed []BelievedFD, suggestions []Suggestion) map[fd.Cell]int {
	score := make(map[fd.Cell]int, len(suggestions))
	if len(suggestions) == 0 {
		return score
	}
	for _, bf := range believed {
		flagged := fd.MinorityRows(bf.FD, rel)
		attrs := bf.FD.Attrs()
		for _, s := range suggestions {
			if !attrs.Has(s.Attr) {
				continue
			}
			if _, bad := flagged[s.Row]; bad {
				score[fd.Cell{Row: s.Row, Attr: s.Attr}]++
			}
		}
	}
	return score
}

// suggestForFD applies the minority-to-plurality rule for one FD.
func suggestForFD(rel *dataset.Relation, bf BelievedFD, cfg Config) []Suggestion {
	lhs := bf.FD.LHS.Attrs()
	groups := make(map[string][]int)
	for i := 0; i < rel.NumRows(); i++ {
		key := rel.ProjectKey(i, lhs)
		groups[key] = append(groups[key], i)
	}
	var out []Suggestion
	for _, rows := range groups {
		if len(rows) < 2 {
			continue
		}
		counts := make(map[string]int)
		for _, r := range rows {
			counts[rel.Value(r, bf.FD.RHS)]++
		}
		if len(counts) < 2 {
			continue
		}
		// Plurality value, ties toward the lexicographically smallest
		// (consistent with fd.MinorityRows).
		vals := make([]string, 0, len(counts))
		for v := range counts {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		majority := vals[0]
		for _, v := range vals[1:] {
			if counts[v] > counts[majority] {
				majority = v
			}
		}
		maxClass := int(cfg.MinorityFraction * float64(len(rows)))
		if maxClass < 1 {
			maxClass = 1
		}
		margin := float64(counts[majority]) / float64(len(rows))
		conf := bf.Confidence * margin
		if conf < cfg.MinConfidence {
			continue
		}
		for _, r := range rows {
			v := rel.Value(r, bf.FD.RHS)
			if v != majority && counts[v] <= maxClass {
				out = append(out, Suggestion{
					Row: r, Attr: bf.FD.RHS,
					Old: v, New: majority,
					Confidence: conf,
					Source:     bf.FD,
				})
			}
		}
	}
	return out
}

// Apply returns a repaired copy of the relation with every suggestion
// applied. It errors if a suggestion's Old value no longer matches the
// relation (a stale suggestion must not silently clobber data).
func Apply(rel *dataset.Relation, suggestions []Suggestion) (*dataset.Relation, error) {
	out := rel.Clone()
	for _, s := range suggestions {
		if s.Row < 0 || s.Row >= out.NumRows() || s.Attr < 0 || s.Attr >= out.Schema().Arity() {
			return nil, fmt.Errorf("repair: suggestion out of bounds: row %d attr %d", s.Row, s.Attr)
		}
		if got := out.Value(s.Row, s.Attr); got != s.Old {
			return nil, fmt.Errorf("repair: stale suggestion for cell (%d,%d): have %q, expected %q",
				s.Row, s.Attr, got, s.Old)
		}
		out.SetValue(s.Row, s.Attr, s.New)
	}
	return out, nil
}
