package config

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the configuration parser: it must
// return a config or an error, never panic. The seed corpus under
// testdata/fuzz/FuzzParse holds the sample and error cases of
// config_test.go.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if cfg, err := Parse(strings.NewReader(text)); err == nil {
			cfg.FrameworkConfig()
		}
	})
}
