package unsafeonly_test

import (
	"testing"

	"github.com/dpgrid/dpgrid/internal/analysis/analysistest"
	"github.com/dpgrid/dpgrid/internal/analysis/passes/unsafeonly"
)

func TestUnsafeonly(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), unsafeonly.Analyzer, "internal/codec")
}
