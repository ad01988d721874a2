package hunt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// FamilyStats aggregates one composition signature's outcomes.
type FamilyStats struct {
	// Families is the composition signature, e.g. "rotation+blur".
	Families string `json:"families"`
	// Evals counts candidates evaluated with this signature; Escapes and
	// Near count finds (before deduplication).
	Evals   int `json:"evals"`
	Escapes int `json:"escapes"`
	Near    int `json:"near_escapes"`
}

// Rate is the escape frequency: finds (full + near) per evaluation.
func (f FamilyStats) Rate() float64 {
	if f.Evals == 0 {
		return 0
	}
	return float64(f.Escapes+f.Near) / float64(f.Evals)
}

// Report summarizes one hunt: budgets spent, finds, coverage reached,
// and the per-composition escape-rate table dvbench -hunt renders.
type Report struct {
	Seed          int64   `json:"seed"`
	Budget        int     `json:"budget"`
	Evals         int     `json:"evals"`
	MinimizeEvals int     `json:"minimize_evals"`
	Escapes       int     `json:"escapes"`
	NearEscapes   int     `json:"near_escapes"`
	Saved         int     `json:"saved"`
	Signatures    int     `json:"coverage_signatures"`
	BinsHit       int     `json:"coverage_bins_hit"`
	BinsTotal     int     `json:"coverage_bins_total"`
	Epsilon       float64 `json:"epsilon"`
	MinConfidence float64 `json:"min_confidence"`
	NearFactor    float64 `json:"near_factor"`
	// Rows is sorted by descending escape rate, ties by signature.
	Rows []FamilyStats `json:"rows"`
}

// RatesName is the per-hunt report filename written next to the corpus.
const RatesName = "rates.json"

// sortRows fixes the canonical row order.
func (r *Report) sortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		ri, rj := r.Rows[i].Rate(), r.Rows[j].Rate()
		if ri != rj {
			return ri > rj
		}
		return r.Rows[i].Families < r.Rows[j].Families
	})
}

// Save writes the report as canonical JSON (atomic, trailing newline).
func (r *Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("hunt: encoding report: %w", err)
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// LoadReport reads a report written by Save.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hunt: reading report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("hunt: parsing report %s: %w", path, err)
	}
	return &r, nil
}

// WriteTable renders the escape-rate table, plain or markdown — the
// same rows dvbench -hunt appends to the evaluation report.
func (r *Report) WriteTable(w io.Writer, markdown bool) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if markdown {
		p("| Composition | Evals | Escapes | Near | Escape rate |\n")
		p("|---|---:|---:|---:|---:|\n")
		for _, row := range r.Rows {
			p("| %s | %d | %d | %d | %.4f |\n", row.Families, row.Evals, row.Escapes, row.Near, row.Rate())
		}
	} else {
		p("%-36s  %8s  %8s  %6s  %11s\n", "Composition", "Evals", "Escapes", "Near", "Escape rate")
		for _, row := range r.Rows {
			p("%-36s  %8d  %8d  %6d  %11.4f\n", row.Families, row.Evals, row.Escapes, row.Near, row.Rate())
		}
	}
	p("%d evals (+%d minimizing), %d escapes, %d near-escapes, %d saved; %d coverage signatures, %d/%d bins; eps=%.6g, min-conf=%.2f, near=%.2f\n",
		r.Evals, r.MinimizeEvals, r.Escapes, r.NearEscapes, r.Saved,
		r.Signatures, r.BinsHit, r.BinsTotal, r.Epsilon, r.MinConfidence, r.NearFactor)
	return err
}
