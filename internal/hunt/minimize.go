package hunt

import (
	"deepvalidation/internal/core"
	"deepvalidation/internal/corner"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// shrinkRounds bounds how many halving steps each parameter gets during
// minimization; 8 rounds shrink a parameter to within 1/256 of the
// smallest escaping distance from neutral.
const shrinkRounds = 8

// Target is the system under test: the classifier plus its fitted
// validator. Scoring is read-only on both, so one Target serves the
// whole hunt concurrently.
type Target struct {
	Net *nn.Network
	Val *core.Validator
}

// score evaluates one chain on one seed, returning the scoring result
// and the transformed image. Chains produced by the Mutator always
// materialize; an error here means a corrupted corpus chain.
func (t Target) score(seed *tensor.Tensor, c Chain, spaces []corner.Space) (core.Result, *tensor.Tensor, error) {
	tr, err := c.Materialize(spaces)
	if err != nil {
		return core.Result{}, nil, err
	}
	img := tr.Apply(seed)
	return t.Val.Score(t.Net, img), img, nil
}

// Minimize greedily simplifies an escape: it repeatedly tries to drop
// whole composition stages, then to shrink every remaining parameter
// toward its neutral (no-op) value by binary halving, keeping each
// simplification only while accept still holds on the re-scored result
// (the crash-minimization discipline of go-fuzz, lifted to
// transformation space). It returns the minimized chain, its scoring
// result, and how many evaluations were spent. The input chain is not
// modified; accept must hold for it.
func Minimize(tgt Target, seed *tensor.Tensor, chain Chain, spaces []corner.Space, accept func(core.Result) bool) (Chain, core.Result, int) {
	cur := chain.Clone()
	res, _, err := tgt.score(seed, cur, spaces)
	evals := 1
	if err != nil {
		return cur, res, evals
	}

	// Stage-drop passes: retry from the front after every successful
	// drop, since removing one stage can make another removable.
	for dropped := true; dropped && len(cur) > 1; {
		dropped = false
		for i := 0; i < len(cur); i++ {
			cand := append(cur[:i:i].Clone(), cur[i+1:].Clone()...)
			r, _, err := tgt.score(seed, cand, spaces)
			evals++
			if err == nil && accept(r) {
				cur, res = cand, r
				dropped = true
				break
			}
		}
	}

	// Parameter shrink: halve each parameter's distance to neutral while
	// the escape persists.
	for i := range cur {
		sp, ok := corner.SpaceByFamily(spaces, cur[i].Family)
		if !ok {
			continue
		}
		for j, r := range sp.Params {
			for round := 0; round < shrinkRounds; round++ {
				p := cur[i].Params[j]
				mid := p + float64((r.Neutral-p)/2)
				if mid == p {
					break
				}
				cand := cur.Clone()
				cand[i].Params[j] = mid
				rr, _, err := tgt.score(seed, cand, spaces)
				evals++
				if err != nil || !accept(rr) {
					break
				}
				cur, res = cand, rr
			}
		}
	}
	return cur, res, evals
}
