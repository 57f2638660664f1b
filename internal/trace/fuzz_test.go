package trace

import (
	"strings"
	"testing"
)

// FuzzParseSWF feeds arbitrary text to the SWF reader: it must return a
// trace or an error, never panic. The seed corpus under
// testdata/fuzz/FuzzParseSWF holds the hand-built log and error cases of
// swf_test.go plus the head of a generated Tianhe-2A trace.
func FuzzParseSWF(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		ParseSWF(strings.NewReader(text), 24)
	})
}
