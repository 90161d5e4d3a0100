package critpath

import (
	"bytes"
	"testing"

	"sigil/internal/trace"
)

// FuzzAnalyzeReader holds the streaming analysis to the materialized one on
// arbitrary input, seeded with real v3 event files: no byte string may
// panic AnalyzeReader, and whenever trace.ReadAll accepts the input,
// AnalyzeReader must return what Analyze returns for the decoded trace —
// the same analysis or the same error.
func FuzzAnalyzeReader(f *testing.F) {
	for _, name := range []string{"facesim", "fluidanimate"} {
		seed, err := eventFile(name)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		streamed, serr := AnalyzeReader(bytes.NewReader(data))
		tr, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		inMem, ierr := Analyze(tr)
		switch {
		case serr == nil && ierr == nil:
			if d := diffAnalysis(streamed, inMem); d != "" {
				t.Fatalf("streaming vs in-memory: %s", d)
			}
		case serr == nil || ierr == nil || serr.Error() != ierr.Error():
			t.Fatalf("streaming error %v, in-memory error %v", serr, ierr)
		}
	})
}
