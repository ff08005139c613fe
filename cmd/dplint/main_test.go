package main

import (
	"testing"

	"github.com/dpgrid/dpgrid/internal/analysis/driver"
	"github.com/dpgrid/dpgrid/internal/analysis/suite"
)

// TestRepoClean is the merge gate: the shipped tree must produce zero
// dplint findings. A true positive must be fixed; a false positive must
// be suppressed in place with a lint:ignore directive whose reason
// explains why the code is right — never by weakening an analyzer.
func TestRepoClean(t *testing.T) {
	findings, err := driver.Run("../..", suite.Analyzers(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestSuiteShape pins the published analyzer set: six checks with
// stable, distinct DPL codes (docs/ANALYZERS.md documents each).
func TestSuiteShape(t *testing.T) {
	as := suite.Analyzers()
	if len(as) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(as))
	}
	wantCodes := []string{"DPL001", "DPL002", "DPL003", "DPL004", "DPL005", "DPL006"}
	for i, a := range as {
		if a.Code != wantCodes[i] {
			t.Errorf("analyzer %d (%s) has code %s, want %s", i, a.Name, a.Code, wantCodes[i])
		}
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing metadata", a.Code)
		}
	}
}
