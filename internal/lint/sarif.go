package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// WriteSARIF renders findings as a SARIF 2.1.0 log, the interchange
// format GitHub code scanning ingests: each analyzer becomes a reporting
// rule, each finding a result annotated at its file/line/column, so lint
// findings surface inline on pull-request diffs instead of only in a CI
// log. File URIs are emitted relative to baseDir (the checkout root in
// CI) because code scanning matches them against repository paths.
func WriteSARIF(w io.Writer, findings []Finding, analyzers []*Analyzer, baseDir string) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{a.Doc}})
	}
	// The pseudo-analyzer behind malformed //eslurmlint:ignore directives:
	// its findings carry this rule id, so it needs a rule entry too.
	rules = append(rules, sarifRule{
		ID:               "suppress",
		ShortDescription: sarifText{"flag malformed //eslurmlint:ignore directives (missing reason or unknown analyzer)"},
	})

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		uri := f.Pos.Filename
		if rel, err := filepath.Rel(baseDir, uri); err == nil && !isParentPath(rel) {
			uri = rel
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error", // every eslurmlint finding is a merge blocker
			Message: sarifText{f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(uri)},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "eslurmlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

func isParentPath(rel string) bool {
	return rel == ".." || len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator)
}

// The subset of the SARIF 2.1.0 object model eslurmlint emits.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

// sarifDriver carries no version: its rules list already names the rule
// set that produced the log.
type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}
