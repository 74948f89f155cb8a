package bench

import (
	"fmt"
	"strings"

	"wise/internal/stats"
)

// DefaultThreshold is the relative change a row's ratio quartiles must
// clear for a verdict other than same (0.20 = 20%).
const DefaultThreshold = 0.20

// Verdict classifies one row of a paired comparison.
type Verdict string

// Verdicts. Only Regressed fails the gate; Unresolved says the rounds
// disagree too much to decide and is never fatal.
const (
	Same       Verdict = "same"       // both ratio quartiles within ±threshold
	Improved   Verdict = "improved"   // Q3 below 1−threshold
	Regressed  Verdict = "regressed"  // Q1 above 1+threshold
	Unresolved Verdict = "unresolved" // anything else, or rounds cannot be paired
)

// Delta is one row's paired comparison. Ratios are new/old ns/op of the
// same round; Q1, Median and Q3 are their quartiles. Note says why a row
// could not be paired.
type Delta struct {
	Pkg, Name      string
	Rounds         int
	Q1, Median, Q3 float64
	Verdict        Verdict
	Note           string
}

// Comparison is the outcome of pairing two reports.
type Comparison struct {
	OldEnv, NewEnv Env
	Threshold      float64
	Deltas         []Delta
	Counts         map[Verdict]int
}

// Compare pairs sample i of every old row with sample i of the new row of
// the same package and name, and judges each row on the quartiles of the
// per-round ratios. Rows whose sample counts differ, or that exist on one
// side only, are unresolved. A non-positive threshold means
// DefaultThreshold.
func Compare(oldR, newR *Report, threshold float64) (*Comparison, error) {
	if oldR.Schema != newR.Schema {
		return nil, fmt.Errorf("bench: %w: comparing schema %d against %d", ErrSchema, oldR.Schema, newR.Schema)
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	c := &Comparison{
		OldEnv: oldR.Env, NewEnv: newR.Env, Threshold: threshold,
		Deltas: make([]Delta, 0, len(oldR.Results)+len(newR.Results)),
		Counts: make(map[Verdict]int, 4),
	}
	newByKey := make(map[string]*Result, len(newR.Results))
	for i := range newR.Results {
		newByKey[newR.Results[i].key()] = &newR.Results[i]
	}
	matched := make(map[string]bool, len(oldR.Results))
	for i := range oldR.Results {
		o := &oldR.Results[i]
		n := newByKey[o.key()]
		if n == nil {
			c.add(Delta{Pkg: o.Pkg, Name: o.Name, Verdict: Unresolved, Note: "only in old"})
			continue
		}
		matched[o.key()] = true
		c.add(pair(o, n, threshold))
	}
	for i := range newR.Results {
		if n := &newR.Results[i]; !matched[n.key()] {
			c.add(Delta{Pkg: n.Pkg, Name: n.Name, Verdict: Unresolved, Note: "only in new"})
		}
	}
	return c, nil
}

// add appends one row and counts its verdict.
func (c *Comparison) add(d Delta) {
	c.Deltas = append(c.Deltas, d)
	c.Counts[d.Verdict]++
}

// pair judges one row present in both reports.
func pair(o, n *Result, threshold float64) Delta {
	d := Delta{Pkg: o.Pkg, Name: o.Name, Rounds: len(o.Ns), Verdict: Unresolved}
	if len(o.Ns) != len(n.Ns) || len(o.Ns) == 0 {
		d.Note = fmt.Sprintf("%d old samples, %d new", len(o.Ns), len(n.Ns))
		return d
	}
	ratios := make([]float64, len(o.Ns))
	for i, ns := range o.Ns {
		if ns <= 0 {
			d.Note = "non-positive old sample"
			return d
		}
		ratios[i] = n.Ns[i] / ns
	}
	d.Q1 = stats.Percentile(ratios, 25)
	d.Median = stats.Percentile(ratios, 50)
	d.Q3 = stats.Percentile(ratios, 75)
	switch {
	case d.Q1 > 1+threshold:
		d.Verdict = Regressed
	case d.Q3 < 1-threshold:
		d.Verdict = Improved
	case d.Q1 >= 1-threshold && d.Q3 <= 1+threshold:
		d.Verdict = Same
	}
	return d
}

// String renders every row whose verdict is not same, then a summary line.
func (c *Comparison) String() string {
	var b strings.Builder
	if c.OldEnv != c.NewEnv {
		fmt.Fprintf(&b, "note: environments differ (old: %+v; new: %+v)\n", c.OldEnv, c.NewEnv)
	}
	header := false
	for _, d := range c.Deltas {
		if d.Verdict == Same {
			continue
		}
		if !header {
			fmt.Fprintf(&b, "%-72s %6s %7s %7s %7s  %s\n", "benchmark", "rounds", "Q1", "median", "Q3", "verdict")
			header = true
		}
		if d.Note != "" {
			fmt.Fprintf(&b, "%-72s %6d %7s %7s %7s  %s (%s)\n", d.Pkg+" "+d.Name, d.Rounds, "—", "—", "—", d.Verdict, d.Note)
			continue
		}
		fmt.Fprintf(&b, "%-72s %6d %7.3f %7.3f %7.3f  %s\n", d.Pkg+" "+d.Name, d.Rounds, d.Q1, d.Median, d.Q3, d.Verdict)
	}
	fmt.Fprintf(&b, "compared %d rows (new/old ns per round, threshold ±%.0f%%): %d regressed, %d improved, %d same, %d unresolved\n",
		len(c.Deltas), c.Threshold*100, c.Counts[Regressed], c.Counts[Improved], c.Counts[Same], c.Counts[Unresolved])
	return b.String()
}
