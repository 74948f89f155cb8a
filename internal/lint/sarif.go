package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// SARIF 2.1.0 output for CI code-scanning upload (the schema subset GitHub's
// upload-sarif action consumes: tool.driver.rules plus results with physical
// locations). Only the fields the consumer reads are modelled; the full
// schema is at
// https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html.

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool       sarifTool      `json:"tool"`
	Results    []sarifResult  `json:"results"`
	Properties map[string]any `json:"properties,omitempty"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string         `json:"id"`
	ShortDescription sarifMessage   `json:"shortDescription"`
	Properties       map[string]any `json:"properties,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders findings as a SARIF 2.1.0 log. Finding paths must
// already be module-root-relative; they are emitted slash-separated under the
// %SRCROOT% uriBaseId so the uploader anchors them at the checkout root.
// Every analyzer appears in tool.driver.rules even with zero findings, and a
// finding from outside the analyzer list (the unusedignore meta-check) gets
// a rule entry on demand, so every ruleId/ruleIndex resolves. An analyzer's
// Category, when set, lands in the rule's properties for dashboard grouping;
// runProps (may be nil) lands in runs[0].properties — the CLI records its
// wall-clock time and -budget there so CI can audit lint runtime drift.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, findings []Finding, runProps map[string]any) error {
	driver := sarifDriver{Name: "wise-lint", Rules: []sarifRule{}}
	ruleIndex := make(map[string]int)
	addRule := func(id, doc, category string) int {
		if i, ok := ruleIndex[id]; ok {
			return i
		}
		ruleIndex[id] = len(driver.Rules)
		rule := sarifRule{
			ID:               id,
			ShortDescription: sarifMessage{Text: doc},
		}
		if category != "" {
			rule.Properties = map[string]any{"category": category}
		}
		driver.Rules = append(driver.Rules, rule)
		return ruleIndex[id]
	}
	for _, a := range analyzers {
		addRule(a.Name, a.Doc, a.Category)
	}
	addRule("unusedignore", "flags //lint:ignore directives that no longer suppress any finding or name no analyzer in the suite", "")

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		line := f.Line
		if line < 1 {
			line = 1 // SARIF requires startLine >= 1
		}
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: addRule(f.Analyzer, f.Analyzer, ""),
			Level:     "warning",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(f.File),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: line, StartColumn: f.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results, Properties: runProps}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
