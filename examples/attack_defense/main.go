// Attack defense: the paper's Section IV-D5 use case. A white-box
// adversary crafts FGSM, BIM, JSMA, and Carlini–Wagner samples against
// the classifier; Deep Validation — which was never shown an
// adversarial example — flags them by their hidden-layer discrepancy.
//
//	go run ./examples/attack_defense
package main

import (
	"fmt"
	"log"
	"math/rand"

	"deepvalidation/internal/attack"
	"deepvalidation/internal/core"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/tensor"
)

func main() {
	ds := dataset.Digits(dataset.Config{TrainN: 1000, TestN: 300, Seed: 23})

	fmt.Println("training the victim classifier...")
	rng := rand.New(rand.NewSource(31))
	net, err := nn.NewSevenLayerCNN("victim", ds.InC, ds.Size, ds.Classes,
		nn.ArchConfig{Width: 6, FCWidth: 32}, rng)
	if err != nil {
		log.Fatal(err)
	}
	tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(32)))
	if _, err := tr.Train(ds.TrainX, ds.TrainY, 7); err != nil {
		log.Fatal(err)
	}
	acc, _ := net.Accuracy(ds.TestX, ds.TestY)
	fmt.Printf("victim test accuracy: %.4f\n", acc)

	fmt.Println("fitting Deep Validation (no adversarial data involved)...")
	val, err := core.Fit(net, ds.TrainX, ds.TrainY, core.Config{MaxPerClass: 100, MaxFeatures: 128})
	if err != nil {
		log.Fatal(err)
	}

	// Correctly classified seeds for the adversary.
	var seeds []*tensor.Tensor
	var labels []int
	for i, x := range ds.TestX {
		if len(seeds) == 12 {
			break
		}
		if pred, _ := net.Predict(x); pred == ds.TestY[i] {
			seeds = append(seeds, x)
			labels = append(labels, ds.TestY[i])
		}
	}
	cleanScores := core.JointScores(val.ScoreBatchWorkers(net, ds.TestX[:100], 0))

	cw := attack.DefaultCWConfig()
	attacks := []struct {
		name string
		run  func(x *tensor.Tensor, y int) attack.Result
	}{
		{"FGSM ε=0.3", func(x *tensor.Tensor, y int) attack.Result {
			return attack.FGSM(net, x, y, 0.3)
		}},
		{"BIM ε=0.3", func(x *tensor.Tensor, y int) attack.Result {
			return attack.BIM(net, x, y, 0.3, 0.03, 10)
		}},
		{"JSMA→next", func(x *tensor.Tensor, y int) attack.Result {
			return attack.JSMA(net, x, y, attack.NextClass(y, 10), 1.0, 0.15)
		}},
		{"CW-L2→next", func(x *tensor.Tensor, y int) attack.Result {
			return attack.CWL2(net, x, y, attack.NextClass(y, 10), cw)
		}},
	}

	fmt.Printf("\n%-12s  %-12s  %-14s  %s\n", "Attack", "Success", "Mean Δ(adv)", "ROC-AUC vs clean")
	for _, a := range attacks {
		var advScores []float64
		wins := 0
		for i, x := range seeds {
			r := a.run(x, labels[i])
			if r.Success {
				wins++
			}
			advScores = append(advScores, val.Score(net, r.Adversarial).Joint)
		}
		fmt.Printf("%-12s  %2d/%-9d  %+14.4f  %.4f\n",
			a.name, wins, len(seeds),
			metrics.Mean(advScores), metrics.AUC(advScores, cleanScores))
	}
	fmt.Println("\nhigher discrepancy and AUC → the detector separates the attack from clean traffic")
}
