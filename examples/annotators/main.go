// Annotators: how different human behaviours change what the learner
// receives.
//
// The paper's related work names annotators who abstain when unsure and
// annotators who go back and correct earlier labels (Yan et al. 2016).
// This example runs the same training episode against four annotator
// models — plain fictitious play, noisy, abstaining, and relabeling —
// and compares how close the learner's final belief gets to each
// annotator's.
//
// Run with:
//
//	go run ./examples/annotators
package main

import (
	"fmt"
	"log"

	"exptrain"
	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

func main() {
	ds, err := exptrain.GenerateDataset("OMDB", 240, 3)
	if err != nil {
		log.Fatal(err)
	}
	injected, err := exptrain.InjectErrors(ds.Rel, ds.ExactFDs, 0.10, 3)
	if err != nil {
		log.Fatal(err)
	}
	rel := injected.Rel
	space := ds.Space(3, 38)

	type annotatorCase struct {
		name  string
		build func(prior *belief.Belief, rng *stats.RNG) agents.Trainer
	}
	cases := []annotatorCase{
		{"fictitious play", func(p *belief.Belief, rng *stats.RNG) agents.Trainer {
			return agents.NewFPTrainer(p, rng)
		}},
		{"20% label noise", func(p *belief.Belief, rng *stats.RNG) agents.Trainer {
			tr := agents.NewFPTrainer(p, rng)
			tr.NoiseRate = 0.2
			return tr
		}},
		{"abstains when unsure", func(p *belief.Belief, rng *stats.RNG) agents.Trainer {
			return agents.NewAbstainingTrainer(agents.NewFPTrainer(p, rng), 0.15)
		}},
		{"relabels old mistakes", func(p *belief.Belief, rng *stats.RNG) agents.Trainer {
			return agents.NewRelabelingTrainer(agents.NewFPTrainer(p, rng))
		}},
	}

	fmt.Println("same data, same learner (StochasticUS), four annotator behaviours:")
	fmt.Printf("%-24s %10s %10s %12s\n", "annotator", "firstMAE", "finalMAE", "dirty-rate")
	for _, c := range cases {
		rng := stats.NewRNG(11)
		prior := belief.RandomPrior(space, rng.Split(), 0.12)
		trainer := c.build(prior, rng.Split())
		learner := agents.NewLearner(
			belief.DataEstimatePrior(space, rel, 0.12),
			sampling.StochasticUS{}, rng.Split())
		pool := sampling.NewPool(rel, space, sampling.PoolConfig{Seed: 12})

		first, last := -1.0, -1.0
		var dirty, total int
		for round := 0; round < 30; round++ {
			if pool.RemainingCount() == 0 {
				break
			}
			presented := learner.Present(pool.Candidates(), 10)
			pool.MarkShown(presented)
			trainer.Observe(rel, presented)
			labeled := trainer.Label(rel, presented)
			learner.Incorporate(rel, labeled)
			if rl, ok := trainer.(agents.Relabeler); ok {
				learner.Revise(rel, rl.Revisions(rel))
			}
			for _, lp := range labeled {
				total++
				if lp.Dirty() {
					dirty++
				}
			}
			mae := trainer.Belief().MAE(learner.Belief())
			if first < 0 {
				first = mae
			}
			last = mae
		}
		fmt.Printf("%-24s %10.4f %10.4f %11.1f%%\n",
			c.name, first, last, 100*float64(dirty)/float64(total))
	}
	fmt.Println("\nabstention slows convergence (every abstained pair is withheld evidence);")
	fmt.Println("relabeling repairs the learner's early-round damage. label noise corrupts")
	fmt.Println("individual annotations (dirty-rate jumps) yet can *shrink* the belief gap:")
	fmt.Println("flipped marks leak the negative evidence the clean protocol withholds for")
	fmt.Println("believed hypotheses — exactly the trade-off the paper's trainer models probe.")
}
