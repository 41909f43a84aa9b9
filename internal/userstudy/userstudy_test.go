package userstudy

import (
	"strings"
	"testing"

	"exptrain/internal/fd"
)

func quickStudy(t *testing.T) *Study {
	t.Helper()
	study, err := Simulate(StudyConfig{Participants: 8, Rows: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return study
}

func TestBuildScenariosTable2(t *testing.T) {
	scs, err := BuildScenarios(160, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 5 {
		t.Fatalf("built %d scenarios, want 5", len(scs))
	}
	wantDomains := []string{"Airport", "Airport", "Airport", "OMDB", "OMDB"}
	for i, sc := range scs {
		if sc.ID != i+1 {
			t.Errorf("scenario %d has ID %d", i, sc.ID)
		}
		if sc.Domain != wantDomains[i] {
			t.Errorf("scenario %d domain %q, want %q", sc.ID, sc.Domain, wantDomains[i])
		}
		if len(sc.Target) == 0 || len(sc.Alternatives) == 0 {
			t.Errorf("scenario %d missing FDs", sc.ID)
		}
		for _, f := range append(append([]fd.FD{}, sc.Target...), sc.Alternatives...) {
			if !sc.Space.Contains(f) {
				t.Errorf("scenario %d: FD %v not in space", sc.ID, f)
			}
		}
		// Injection must leave violations of the target FDs in the data.
		viol := 0
		for _, f := range sc.Target {
			viol += fd.ComputeStats(f, sc.Rel).Violating
		}
		if viol == 0 {
			t.Errorf("scenario %d has no target violations", sc.ID)
		}
		if len(sc.CleanRows) == 0 || len(sc.CleanRows) == sc.Rel.NumRows() {
			t.Errorf("scenario %d ground truth degenerate: %d clean of %d",
				sc.ID, len(sc.CleanRows), sc.Rel.NumRows())
		}
	}
	// Scenario 2 is the designated hard one.
	if scs[1].Difficulty <= scs[0].Difficulty || scs[1].Difficulty <= scs[4].Difficulty {
		t.Error("scenario 2 should be the hardest")
	}
}

func TestBuildScenariosTooSmall(t *testing.T) {
	if _, err := BuildScenarios(10, 1); err == nil {
		t.Fatal("tiny row count should error")
	}
}

func TestSimulateShape(t *testing.T) {
	study := quickStudy(t)
	if len(study.Scenarios) != 5 {
		t.Fatalf("%d scenarios", len(study.Scenarios))
	}
	if len(study.Trajectories) != 8*5 {
		t.Fatalf("%d trajectories, want 40", len(study.Trajectories))
	}
	for _, traj := range study.Trajectories {
		n := len(traj.Iterations)
		if n < 9 || n > 15 {
			t.Fatalf("trajectory has %d iterations, want 9-15 (§A.2)", n)
		}
		for _, it := range traj.Iterations {
			if len(it.SampleRows) != 10 {
				t.Fatalf("sample of %d rows, want 10", len(it.SampleRows))
			}
			if !traj.Scenario.Space.Contains(it.Declared) {
				t.Fatalf("declared FD %v outside space", it.Declared)
			}
		}
		if traj.HasGuess && !traj.Scenario.Space.Contains(traj.InitialGuess) {
			t.Fatalf("initial guess %v outside space", traj.InitialGuess)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(StudyConfig{Participants: 4, Rows: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(StudyConfig{Participants: 4, Rows: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trajectories {
		ta, tb := a.Trajectories[i], b.Trajectories[i]
		if len(ta.Iterations) != len(tb.Iterations) {
			t.Fatal("same seed different session lengths")
		}
		for j := range ta.Iterations {
			if ta.Iterations[j].Declared != tb.Iterations[j].Declared {
				t.Fatal("same seed different declarations")
			}
		}
	}
}

func TestPopulationMixture(t *testing.T) {
	study, err := Simulate(StudyConfig{Participants: 40, Rows: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ModelKind]int{}
	seen := map[int]bool{}
	for _, traj := range study.Trajectories {
		if !seen[traj.Participant.ID] {
			seen[traj.Participant.ID] = true
			counts[traj.Participant.Kind]++
		}
	}
	if counts[ModelFP] <= counts[ModelHT] || counts[ModelFP] <= counts[ModelErratic] {
		t.Errorf("FP should dominate the population: %v", counts)
	}
}

func TestHypothesisDriftNonTrivial(t *testing.T) {
	study := quickStudy(t)
	drift := HypothesisDrift(study)
	if len(drift) != 5 {
		t.Fatalf("drift for %d scenarios", len(drift))
	}
	for id, d := range drift {
		if d < 0 || d > 1 {
			t.Errorf("scenario %d drift %v out of range", id, d)
		}
	}
	// §A.3: hypothesis changes are substantial, not noise — at least
	// some scenarios show real drift.
	any := false
	for _, d := range drift {
		if d > 0.02 {
			any = true
		}
	}
	if !any {
		t.Errorf("no scenario shows non-trivial drift: %v", drift)
	}
}

// TestFPBeatsHypothesisTesting reproduces Figure 2's headline: the
// FP/Bayesian model predicts declared hypotheses better than hypothesis
// testing, overall and in (nearly) every scenario.
func TestFPBeatsHypothesisTesting(t *testing.T) {
	study, err := Simulate(StudyConfig{Participants: 12, Rows: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fits, err := FitModels(study)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 2 || fits[0].Model != "FP" || fits[1].Model != "HypothesisTesting" {
		t.Fatalf("unexpected fits: %+v", fits)
	}
	fp, ht := fits[0], fits[1]
	wins := 0
	for id := 1; id <= 5; id++ {
		if fp.MRR[id] > ht.MRR[id] {
			wins++
		}
		// "+" variants never decrease the score.
		if fp.MRRPlus[id] < fp.MRR[id]-1e-12 {
			t.Errorf("scenario %d: FP+ (%v) below FP (%v)", id, fp.MRRPlus[id], fp.MRR[id])
		}
		if ht.MRRPlus[id] < ht.MRR[id]-1e-12 {
			t.Errorf("scenario %d: HT+ (%v) below HT (%v)", id, ht.MRRPlus[id], ht.MRR[id])
		}
	}
	if wins < 4 {
		t.Errorf("FP won only %d/5 scenarios: FP=%v HT=%v", wins, fp.MRR, ht.MRR)
	}
}

// TestScenario2IsHardest reproduces §A.3's exception: the FP model's
// accuracy dips in scenario 2, where participants learn non-monotonically.
func TestScenario2IsHardest(t *testing.T) {
	study, err := Simulate(StudyConfig{Participants: 12, Rows: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fits, err := FitModels(study)
	if err != nil {
		t.Fatal(err)
	}
	fp := fits[0]
	for id := 1; id <= 5; id++ {
		if id == 2 {
			continue
		}
		if fp.MRR[2] >= fp.MRR[id] {
			t.Errorf("scenario 2 MRR (%v) should be below scenario %d (%v)", fp.MRR[2], id, fp.MRR[id])
		}
	}
}

func TestSummarize(t *testing.T) {
	study := quickStudy(t)
	sums, err := Summarize(study)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	for _, s := range sums {
		if s.OverallMRR < 0 || s.OverallMRR > 1 {
			t.Errorf("%s MRR %v out of range", s.Model, s.OverallMRR)
		}
		if s.Top1Rate > s.Top2Rate {
			t.Errorf("%s top1 (%v) exceeds top2 (%v)", s.Model, s.Top1Rate, s.Top2Rate)
		}
		if s.TotalPredictions == 0 {
			t.Errorf("%s has no predictions", s.Model)
		}
	}
	if sums[0].OverallMRR <= sums[1].OverallMRR {
		t.Errorf("FP (%v) should beat HT (%v) overall", sums[0].OverallMRR, sums[1].OverallMRR)
	}
}

func TestWriteTables(t *testing.T) {
	study := quickStudy(t)
	var sb strings.Builder
	if err := WriteTable3(&sb, HypothesisDrift(study)); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 6 {
		t.Errorf("Table 3 has %d lines, want 6", lines)
	}
	fits, err := FitModels(study)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteFigure2(&sb, fits); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, token := range []string{"FP", "FP+", "HypothesisTesting"} {
		if !strings.Contains(out, token) {
			t.Errorf("Figure 2 output missing %q", token)
		}
	}
}

func TestModelKindString(t *testing.T) {
	if ModelFP.String() != "FP" || ModelHT.String() != "HT" || ModelErratic.String() != "Erratic" {
		t.Error("ModelKind rendering wrong")
	}
	if ModelKind(9).String() != "unknown" {
		t.Error("unknown kind should render 'unknown'")
	}
}

func TestPairsAmong(t *testing.T) {
	ps := pairsAmong([]int{3, 1, 7})
	if len(ps) != 3 {
		t.Fatalf("pairsAmong(3 rows) = %d pairs", len(ps))
	}
	for _, p := range ps {
		if p.A >= p.B {
			t.Fatalf("non-canonical pair %v", p)
		}
	}
}

// TestFitByParticipant reproduces §A.3's per-participant grouping: FP
// fits nearly every participant better than hypothesis testing.
func TestFitByParticipant(t *testing.T) {
	study, err := Simulate(StudyConfig{Participants: 12, Rows: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fits, err := FitByParticipant(study)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 12 {
		t.Fatalf("got %d participant fits", len(fits))
	}
	wins := 0
	for i, f := range fits {
		if f.ParticipantID != i {
			t.Fatalf("fits not ordered by ID: %v", f)
		}
		if f.FPMRR < 0 || f.FPMRR > 1 || f.HTMRR < 0 || f.HTMRR > 1 {
			t.Fatalf("MRR out of range: %+v", f)
		}
		if f.FPWins() {
			wins++
		}
	}
	// The paper reports FP wins for all but two of twenty; our simulated
	// population should show the same strong majority.
	if wins < len(fits)*3/4 {
		t.Errorf("FP wins only %d/%d participants", wins, len(fits))
	}
}

// TestFitIdentifiesGeneratingModel is the identifiability result the
// Figure 2 analysis rests on: the per-participant fit recovers the model
// that generated each participant — FP fits every FP-generated
// participant better, hypothesis testing every HT-generated one — so
// "FP beats HT" measures the simulated population's mix rather than a
// bias of the fit. Erratic participants have no right answer and are
// not checked.
func TestFitIdentifiesGeneratingModel(t *testing.T) {
	counts := map[ModelKind]int{}
	for seed := uint64(1); seed <= 3; seed++ {
		study, err := Simulate(StudyConfig{Participants: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fits, err := FitByParticipant(study)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fits {
			switch f.Kind {
			case ModelFP:
				if !f.FPWins() {
					t.Errorf("seed %d participant %d: FP-generated, but the fit picks HT (FP MRR %.4f, HT MRR %.4f)", seed, f.ParticipantID, f.FPMRR, f.HTMRR)
				}
			case ModelHT:
				if f.FPWins() {
					t.Errorf("seed %d participant %d: HT-generated, but the fit picks FP (FP MRR %.4f, HT MRR %.4f)", seed, f.ParticipantID, f.FPMRR, f.HTMRR)
				}
			}
			counts[f.Kind]++
		}
	}
	// Both generating models must be present, or the test checks nothing.
	if counts[ModelFP] == 0 || counts[ModelHT] == 0 {
		t.Fatalf("participants per model %v: need FP- and HT-generated ones", counts)
	}
	t.Logf("participants per model: FP %d, HT %d, erratic %d", counts[ModelFP], counts[ModelHT], counts[ModelErratic])
}
