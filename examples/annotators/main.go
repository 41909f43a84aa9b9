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
	"context"
	"fmt"
	"log"

	"exptrain"
	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/game"
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

		// The game forwards a relabeling annotator's corrections to the
		// learner, which reverses the evidence of the labels they replace.
		res, err := Run(rel, trainer, learner, pool, game.Config{K: 10, Iterations: 30})
		if err != nil {
			log.Fatal(err)
		}
		var dirty, total int
		for _, it := range res.Iterations {
			for _, lp := range it.Labeled {
				total++
				if lp.Dirty() {
					dirty++
				}
			}
		}
		fmt.Printf("%-24s %10.4f %10.4f %11.1f%%\n",
			c.name, res.Iterations[0].MAE, res.FinalMAE(), 100*float64(dirty)/float64(total))
	}
	fmt.Println("\nabstention slows convergence (every abstained pair is withheld evidence);")
	fmt.Println("relabeling repairs the learner's early-round damage. label noise corrupts")
	fmt.Println("individual annotations (dirty-rate jumps) yet can *shrink* the belief gap:")
	fmt.Println("flipped marks leak the negative evidence the clean protocol withholds for")
	fmt.Println("believed hypotheses — exactly the trade-off the paper's trainer models probe.")
}

// Run plays one game to the end: nothing cancels an example.
func Run(rel *dataset.Relation, trainer agents.Trainer, learner *agents.Learner, pool *sampling.Pool, cfg game.Config) (*game.Result, error) {
	return game.RunContext(context.Background(), rel, trainer, learner, pool, cfg)
}
