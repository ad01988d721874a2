package experiment

import (
	"encoding/gob"
	"fmt"
	"os"

	"deepvalidation/internal/corner"
	"deepvalidation/internal/tensor"
)

// CornerSet is one kept transformation's corner cases over all seeds —
// a row of Table V plus the images behind it. Fields are concrete so
// the corpus serializes with plain gob.
type CornerSet struct {
	Family        string
	Config        string
	Images        []*tensor.Tensor
	SeedLabels    []int
	Preds         []int
	Confs         []float64
	SuccessRate   float64
	MeanWrongConf float64
}

// SCC returns the successful corner cases (misclassified seeds); the
// rest of Images are the failed ones (FCC).
func (c CornerSet) SCC() []*tensor.Tensor {
	var out []*tensor.Tensor
	for i, img := range c.Images {
		if c.Preds[i] != c.SeedLabels[i] {
			out = append(out, img)
		}
	}
	return out
}

// Corpus is the full evaluation dataset of Section IV-D1 for one
// scenario: every kept transformation's corner cases plus an equally
// sized clean sample.
type Corpus struct {
	Scenario string
	SeedX    []*tensor.Tensor
	SeedY    []int
	// Sets holds the kept single transformations plus the combined one.
	Sets []CornerSet
	// Dropped lists families that never reached the 30% success bar
	// (the "-" rows of Table V).
	Dropped []string
	// CleanX matches the corner-case count with clean test images.
	CleanX []*tensor.Tensor
}

// AllSCC pools the successful corner cases across sets.
func (c *Corpus) AllSCC() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, s := range c.Sets {
		out = append(out, s.SCC()...)
	}
	return out
}

// Set returns the named transformation set, or nil.
func (c *Corpus) Set(family string) *CornerSet {
	for i := range c.Sets {
		if c.Sets[i].Family == family {
			return &c.Sets[i]
		}
	}
	return nil
}

// Corpus synthesizes (or loads) the corner-case evaluation corpus for a
// scenario: the grid search of Section IV-B over all applicable
// families, one combined transformation, and the clean counterpart
// sample.
func (l *Lab) Corpus(s *Scenario) (*Corpus, error) {
	if c, ok := l.corpora[s.Name]; ok {
		return c, nil
	}
	if l.CacheDir != "" {
		if c, err := loadCorpus(l.cachePath("corpus", s.Name)); err == nil {
			l.logf("[%s] loaded cached corpus (%d sets)", s.Name, len(c.Sets))
			l.corpora[s.Name] = c
			return c, nil
		}
	}

	rng := seedRNG(s.Name)
	seedX, seedY, err := corner.SelectSeeds(s.Net, s.Dataset.TestX, s.Dataset.TestY, l.Scale.Seeds, rng)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", s.Name, err)
	}

	l.logf("[%s] corner-case grid search over %d seeds", s.Name, len(seedX))
	results := corner.Search(s.Net, seedX, seedY, corner.Families(s.Grayscale))
	c := &Corpus{Scenario: s.Name, SeedX: seedX, SeedY: seedY}
	for _, r := range results {
		if !r.Kept {
			c.Dropped = append(c.Dropped, r.Family)
			l.logf("[%s]   %s: dropped (<%.0f%% success)", s.Name, r.Family, 100*corner.MinSuccess)
			continue
		}
		c.Sets = append(c.Sets, toSet(r.Best))
		l.logf("[%s]   %s: %s success %.3f", s.Name, r.Family, r.Best.Transform.Describe(), r.Best.SuccessRate)
	}
	if combined, ok := corner.CombineSearch(s.Net, seedX, seedY, results); ok {
		c.Sets = append(c.Sets, toSet(combined))
		l.logf("[%s]   combined: %s success %.3f", s.Name, combined.Transform.Describe(), combined.SuccessRate)
	}
	if len(c.Sets) == 0 {
		return nil, fmt.Errorf("experiment: %s: no transformation produced corner cases", s.Name)
	}

	// Clean counterpart: as many clean test images as corner cases
	// (Section IV-D1), drawn without replacement where possible.
	total := 0
	for _, set := range c.Sets {
		total += len(set.Images)
	}
	perm := rng.Perm(len(s.Dataset.TestX))
	for i := 0; i < total; i++ {
		c.CleanX = append(c.CleanX, s.Dataset.TestX[perm[i%len(perm)]])
	}

	if l.CacheDir != "" {
		if err := os.MkdirAll(l.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiment: creating cache dir: %w", err)
		}
		if err := saveCorpus(l.cachePath("corpus", s.Name), c); err != nil {
			return nil, err
		}
	}
	l.corpora[s.Name] = c
	return c, nil
}

func toSet(g corner.Generated) CornerSet {
	return CornerSet{
		Family:        g.Family,
		Config:        g.Transform.Describe(),
		Images:        g.Images,
		SeedLabels:    g.SeedLabels,
		Preds:         g.Preds,
		Confs:         g.Confs,
		SuccessRate:   g.SuccessRate,
		MeanWrongConf: g.MeanWrongConfidence,
	}
}

func saveCorpus(path string, c *Corpus) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: saving corpus: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("experiment: closing %s: %w", path, cerr)
		}
	}()
	if err := gob.NewEncoder(f).Encode(c); err != nil {
		return fmt.Errorf("experiment: encoding corpus: %w", err)
	}
	return nil
}

func loadCorpus(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var c Corpus
	if err := gob.NewDecoder(f).Decode(&c); err != nil {
		return nil, fmt.Errorf("experiment: decoding corpus: %w", err)
	}
	return &c, nil
}

// FamilyOrder lists Table V's row order for rendering.
var FamilyOrder = []string{
	"brightness", "contrast", "rotation", "shear",
	"scale", "translation", "complement", "combined",
}
