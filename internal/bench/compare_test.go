package bench

import (
	"errors"
	"strings"
	"testing"
)

// report builds a schema-current report from rows.
func report(rows ...Result) *Report {
	return &Report{Schema: SchemaVersion, Results: rows}
}

// row builds one row of package p with the given ns/op samples.
func sampleRow(name string, ns ...float64) Result {
	return Result{Pkg: "p", Name: name, Ns: ns}
}

// scaled returns ns with sample i multiplied by f[i].
func scaled(ns []float64, f ...float64) []float64 {
	out := make([]float64, len(ns))
	for i := range ns {
		out[i] = ns[i] * f[i]
	}
	return out
}

// TestCompareVerdicts is the table of paired verdicts: each case pairs one
// old row with one new row round by round.
func TestCompareVerdicts(t *testing.T) {
	old := []float64{100, 120, 90, 110, 100, 95}
	cases := []struct {
		name     string
		old, new *Report
		want     map[string]Verdict
	}{
		{"same", report(sampleRow("a", old...)), report(sampleRow("a", scaled(old, 1.05, 0.95, 1.1, 1, 0.98, 1.02)...)),
			map[string]Verdict{"a": Same}},
		{"improved", report(sampleRow("a", old...)), report(sampleRow("a", scaled(old, 0.5, 0.55, 0.6, 0.5, 0.85, 0.5)...)),
			map[string]Verdict{"a": Improved}},
		{"regressed", report(sampleRow("a", old...)), report(sampleRow("a", scaled(old, 1.5, 1.4, 1.6, 1.5, 0.9, 1.5)...)),
			map[string]Verdict{"a": Regressed}},
		// Q1 0.7 and Q3 1.375: the rounds straddle both bounds.
		{"unresolved", report(sampleRow("a", old...)), report(sampleRow("a", scaled(old, 0.5, 0.6, 1, 1, 1.5, 2)...)),
			map[string]Verdict{"a": Unresolved}},
		// The median alone crosses a bound; a quartile does not.
		{"slower median, Q1 inside", report(sampleRow("a", old...)), report(sampleRow("a", scaled(old, 1, 1.1, 1.3, 1.3, 1.4, 1.5)...)),
			map[string]Verdict{"a": Unresolved}},
		{"faster median, Q3 inside", report(sampleRow("a", old...)), report(sampleRow("a", scaled(old, 1, 0.9, 0.7, 0.7, 0.6, 0.5)...)),
			map[string]Verdict{"a": Unresolved}},
		{"one side only", report(sampleRow("a", old...)), report(sampleRow("b", old...)),
			map[string]Verdict{"a": Unresolved, "b": Unresolved}},
		// Rounds cannot be paired, even though every new sample is 3x.
		{"mismatched sample counts", report(sampleRow("a", old...)), report(sampleRow("a", scaled(old[:5], 3, 3, 3, 3, 3)...)),
			map[string]Verdict{"a": Unresolved}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compare(tc.old, tc.new, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Deltas) != len(tc.want) {
				t.Fatalf("%d rows, want %d: %+v", len(c.Deltas), len(tc.want), c.Deltas)
			}
			for _, d := range c.Deltas {
				if d.Verdict != tc.want[d.Name] {
					t.Errorf("%s: verdict %s (Q1 %.3f, median %.3f, Q3 %.3f, %s), want %s",
						d.Name, d.Verdict, d.Q1, d.Median, d.Q3, d.Note, tc.want[d.Name])
				}
			}
			s := c.String()
			if !strings.Contains(s, "compared") {
				t.Errorf("String() lacks the summary line:\n%s", s)
			}
			for name, v := range tc.want {
				if v != Same && !strings.Contains(s, "p "+name) {
					t.Errorf("String() does not list row %s (%s):\n%s", name, v, s)
				}
			}
		})
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	other := report(sampleRow("a", 1))
	other.Schema = 1
	if _, err := Compare(report(sampleRow("a", 1)), other, 0); !errors.Is(err, ErrSchema) {
		t.Fatalf("cross-schema compare error = %v, want ErrSchema", err)
	}
}

func TestCompareCustomThreshold(t *testing.T) {
	// Every round 10% slower: same at the default 20%, regressed at 4%.
	old := []float64{100, 200, 300, 400, 500, 600}
	oldR, newR := report(sampleRow("a", old...)), report(sampleRow("a", scaled(old, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1)...))
	for _, tc := range []struct {
		threshold float64
		want      Verdict
	}{{0, Same}, {0.04, Regressed}} {
		c, err := Compare(oldR, newR, tc.threshold)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Deltas[0].Verdict; got != tc.want || c.Counts[tc.want] != 1 {
			t.Errorf("threshold %v: verdict %s, want %s", tc.threshold, got, tc.want)
		}
	}
}
