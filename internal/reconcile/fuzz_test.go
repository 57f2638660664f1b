package reconcile

import (
	"strings"
	"testing"
)

// FuzzParseSpec and FuzzParseSchedule feed arbitrary JSON to the spec
// parsers: each must return a value or an error, never panic, and what
// it accepts must validate. The seed corpora under testdata/fuzz hold
// the accepted and rejected inputs of the parser tests.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted an invalid spec %+v: %v", s, err)
		}
	})
}

func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := ParseSchedule(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := sc.Initial.Validate(); err != nil {
			t.Fatalf("ParseSchedule accepted an invalid initial spec %+v: %v", sc.Initial, err)
		}
		for i, m := range sc.Mutations {
			if m.At < 0 || m.Spec.Validate() != nil {
				t.Fatalf("ParseSchedule accepted invalid mutation %d: %+v", i, m)
			}
		}
	})
}
