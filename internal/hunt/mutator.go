package hunt

import (
	"math/rand"

	"deepvalidation/internal/corner"
)

// perturbScale sizes a parameter-perturbation step relative to the
// parameter's range — small enough to walk a discrepancy contour,
// large enough to leave a local plateau within a few mutations.
const perturbScale = 0.15

// Mutator generates and mutates candidate chains over a fixed set of
// transformation spaces. It is stateless: all randomness comes from the
// *rand.Rand passed per call, which keeps the scheduler's determinism
// in one place.
type Mutator struct {
	Spaces []corner.Space
	// MaxStages bounds chain length (composition depth).
	MaxStages int
}

// Random draws a fresh single-stage chain from a uniformly chosen
// family.
func (m *Mutator) Random(rng *rand.Rand) Chain {
	return Chain{m.randomStage(rng)}
}

// RandomInFamily draws a single-stage chain from the given space — the
// scheduler's bootstrap uses it to cover every family before mutation
// takes over.
func (m *Mutator) RandomInFamily(sp corner.Space, rng *rand.Rand) Chain {
	return Chain{Stage{Family: sp.Family, Params: sp.Sample(rng)}}
}

func (m *Mutator) randomStage(rng *rand.Rand) Stage {
	sp := m.Spaces[rng.Intn(len(m.Spaces))]
	return Stage{Family: sp.Family, Params: sp.Sample(rng)}
}

// Mutate returns a mutated copy of c, leaving c untouched. Operators
// mirror a fuzzer's byte mutations lifted to transformation space:
// perturb one parameter, resample a stage, add/drop/replace a stage,
// swap two stages. The result always stays within MaxStages and never
// comes back empty.
func (m *Mutator) Mutate(c Chain, rng *rand.Rand) Chain {
	out := c.Clone()
	if len(out) == 0 {
		return Chain{m.randomStage(rng)}
	}
	switch op := rng.Intn(6); op {
	case 0, 1: // perturb one parameter (weighted: the bread-and-butter op)
		i := rng.Intn(len(out))
		sp, ok := corner.SpaceByFamily(m.Spaces, out[i].Family)
		if !ok || len(sp.Params) == 0 {
			out[i] = m.randomStage(rng)
			break
		}
		j := rng.Intn(len(sp.Params))
		r := sp.Params[j]
		out[i].Params[j] += float64(rng.NormFloat64() * perturbScale * (r.Max - r.Min))
		out[i].Params = sp.Clamp(out[i].Params)
	case 2: // resample one stage's whole parameter vector
		i := rng.Intn(len(out))
		if sp, ok := corner.SpaceByFamily(m.Spaces, out[i].Family); ok {
			out[i].Params = sp.Sample(rng)
		} else {
			out[i] = m.randomStage(rng)
		}
	case 3: // add a stage at a random position
		if len(out) >= m.MaxStages {
			i := rng.Intn(len(out))
			out[i] = m.randomStage(rng)
			break
		}
		i := rng.Intn(len(out) + 1)
		out = append(out[:i], append(Chain{m.randomStage(rng)}, out[i:]...)...)
	case 4: // drop a stage
		if len(out) <= 1 {
			out[0] = m.randomStage(rng)
			break
		}
		i := rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	default: // swap two stages (composition order matters: T2∘T1 ≠ T1∘T2)
		if len(out) <= 1 {
			i := rng.Intn(len(out))
			out[i] = m.randomStage(rng)
			break
		}
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
