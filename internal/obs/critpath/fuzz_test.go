package critpath_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"eslurm/internal/obs/critpath"
)

// FuzzParse feeds arbitrary report bodies to Parse. The harness appends
// the matching digest= trailer, so mutations get past the digest check
// and reach the line parsers. A report Parse accepts must survive
// WriteText → Parse → WriteText byte for byte: critdiff must be able to
// re-emit whatever it loads. The seed corpus under
// testdata/fuzz/FuzzParse holds the body of testdata/report.golden and
// malformed variants of it.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		if !strings.HasSuffix(body, "\n") {
			body += "\n"
		}
		h := fnv.New64a()
		h.Write([]byte(body))
		rep, err := critpath.Parse(strings.NewReader(body + fmt.Sprintf("digest=%016x\n", h.Sum64())))
		if err != nil {
			return
		}
		first := rep.String()
		back, err := critpath.Parse(strings.NewReader(first))
		if err != nil {
			t.Fatalf("Parse rejected its own WriteText output: %v\n%s", err, first)
		}
		if second := back.String(); second != first {
			t.Fatalf("round trip changed bytes:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
