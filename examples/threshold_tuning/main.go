// Threshold tuning: picking the detection threshold ε is a policy
// decision — every value trades missed corner cases against false
// alarms. This example sweeps the ROC curve of a fitted validator on a
// labelled mix of clean and corner-case images and prints the operating
// points a deployment would choose between (the paper pins Figure 4 at
// FPR 0.059 and quotes TPR at ~3-11% FPR in Section IV-D3).
//
//	go run ./examples/threshold_tuning
package main

import (
	"fmt"
	"log"
	"math/rand"

	"deepvalidation/internal/core"
	"deepvalidation/internal/corner"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/imgtrans"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/tensor"
)

func main() {
	ds := dataset.Digits(dataset.Config{TrainN: 1000, TestN: 400, Seed: 77})

	fmt.Println("training classifier and fitting validator...")
	rng := rand.New(rand.NewSource(41))
	net, err := nn.NewSevenLayerCNN("digits", ds.InC, ds.Size, ds.Classes,
		nn.ArchConfig{Width: 6, FCWidth: 32}, rng)
	if err != nil {
		log.Fatal(err)
	}
	tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(42)))
	if _, err := tr.Train(ds.TrainX, ds.TrainY, 7); err != nil {
		log.Fatal(err)
	}
	val, err := core.Fit(net, ds.TrainX, ds.TrainY, core.Config{MaxPerClass: 100, MaxFeatures: 128})
	if err != nil {
		log.Fatal(err)
	}

	// Build a labelled evaluation mix: clean test images vs successful
	// corner cases from three transformation families.
	seedX, seedY, err := corner.SelectSeeds(net, ds.TestX, ds.TestY, 100, rand.New(rand.NewSource(43)))
	if err != nil {
		log.Fatal(err)
	}
	var scc []*tensor.Tensor
	for _, trf := range []imgtrans.Transform{
		imgtrans.Rotation(45),
		imgtrans.Scale(0.6, 0.6),
		imgtrans.Complement{},
	} {
		g := corner.Generate(net, seedX, seedY, trf.Name(), trf)
		imgs, _ := g.SCC()
		scc = append(scc, imgs...)
		fmt.Printf("  %-22s success rate %.2f (%d SCCs)\n", trf.Describe(), g.SuccessRate, len(imgs))
	}

	cleanScores := core.JointScores(val.ScoreBatchWorkers(net, ds.TestX[:200], 0))
	sccScores := core.JointScores(val.ScoreBatchWorkers(net, scc, 0))
	fmt.Printf("\noverall ROC-AUC: %.4f over %d SCCs vs %d clean\n\n",
		metrics.AUC(sccScores, cleanScores), len(sccScores), len(cleanScores))

	fmt.Printf("%-12s  %-10s  %-10s\n", "FPR budget", "ε", "TPR achieved")
	for _, fpr := range []float64{0.01, 0.03, 0.05, 0.10, 0.20} {
		tpr, eps := metrics.TPRAtFPR(sccScores, cleanScores, fpr)
		fmt.Printf("%-12.2f  %-10.4f  %-10.4f\n", fpr, eps, tpr)
	}
	fmt.Println("\npick the row matching your tolerance for false alarms; ε is the threshold to deploy")
}
