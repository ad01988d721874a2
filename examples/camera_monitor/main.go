// Camera monitor: the paper's motivating fail-safe scenario. A
// classifier consumes a simulated camera feed whose environment slowly
// degrades — illumination fades (the Tesla bright-sky failure) and the
// camera mount drifts (rotation). The Deep Validation monitor watches
// every prediction's discrepancy; when the sliding alarm rate crosses a
// budget, the system "calls for human intervention" instead of
// silently trusting a model operating outside its training
// distribution.
//
// This example runs the monitor in-process; to deploy the same
// fail-safe as a network service — micro-batched scoring, 429
// backpressure, hot model reload, graceful drain — serve the saved
// model+validator pair with cmd/dvserve (see README "Serving").
//
//	go run ./examples/camera_monitor
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"deepvalidation"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/imgtrans"
)

const (
	framesPerPhase = 40
	alarmBudget    = 0.5 // hand control back above 50% recent alarms
)

func main() {
	ds := dataset.Digits(dataset.Config{TrainN: 1000, TestN: 400, Seed: 11})

	fmt.Println("training the on-vehicle classifier...")
	det, err := deepvalidation.Build(deepvalidation.ImagesOf(ds.TrainX), ds.TrainY, deepvalidation.BuildConfig{
		Classes: ds.Classes, Epochs: 7, Width: 6, FCWidth: 32,
		SVMPerClass: 100, SVMFeatures: 128, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("fitting Deep Validation and calibrating on clean footage...")
	eps, err := det.Calibrate(deepvalidation.ImagesOf(ds.TestX[:200]), 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε = %.4f (5%% false alarms on clean footage)\n\n", eps)

	// Three phases of a drive: clear conditions, fading light, and a
	// loosening camera mount. Each frame is a fresh scene (digit) under
	// the current environment.
	phases := []struct {
		name string
		env  func(t float64) imgtrans.Transform // t in [0,1) across the phase
	}{
		{"clear afternoon", func(t float64) imgtrans.Transform {
			return imgtrans.Identity{}
		}},
		{"sun setting (brightness drifts)", func(t float64) imgtrans.Transform {
			return imgtrans.Brightness{Beta: -0.55 * t}
		}},
		{"camera mount loosening (rotation drifts)", func(t float64) imgtrans.Transform {
			return imgtrans.Rotation(55 * t)
		}},
	}

	frame := 0
	feed := rand.New(rand.NewSource(19))
	for _, phase := range phases {
		fmt.Printf("--- phase: %s ---\n", phase.name)
		misclassified, caught := 0, 0
		handedOver := false
		for i := 0; i < framesPerPhase; i++ {
			idx := 200 + feed.Intn(200)
			scene, truth := ds.TestX[idx], ds.TestY[idx]

			img := phase.env(float64(i) / framesPerPhase).Apply(scene)
			v, err := det.Check(deepvalidation.ImageOf(img))
			if err != nil {
				log.Fatal(err)
			}
			if v.Label != truth {
				misclassified++
				if !v.Valid {
					caught++
				}
			}
			_, _, alarmRate := det.Stats()
			if alarmRate > alarmBudget && !handedOver {
				fmt.Printf("  frame %3d: ALARM RATE %.0f%% — requesting human intervention\n",
					frame+i, 100*alarmRate)
				handedOver = true
			}
		}
		frame += framesPerPhase
		_, _, alarmRate := det.Stats()
		fmt.Printf("  wrong predictions: %d/%d, flagged before damage: %d\n",
			misclassified, framesPerPhase, caught)
		fmt.Printf("  sliding alarm rate at phase end: %s %.0f%%\n\n",
			bar(alarmRate), 100*alarmRate)
	}

	checked, flagged, _ := det.Stats()
	fmt.Printf("drive summary: %d frames checked, %d flagged as invalid\n", checked, flagged)
}

// bar renders a crude alarm-rate gauge.
func bar(rate float64) string {
	n := int(rate * 20)
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", 20-n) + "]"
}
