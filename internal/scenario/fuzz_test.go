package scenario

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the scenario decoder with arbitrary JSON: it must
// never panic, and anything it accepts must re-encode to a document
// that decodes to an equivalent scenario — one that encodes to the
// same bytes again.
func FuzzDecode(f *testing.F) {
	if data, err := Encode(fullScenario()); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"mode":"infinite","systems":[{"actions":[{"type":"move"}]}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"mode":"finite","space":{"min":[0,0,0],"max":[1,1,1]},"systems":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		scn, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(scn)
		if err != nil {
			t.Fatalf("accepted scenario failed to re-encode: %v", err)
		}
		again, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded scenario failed to decode: %v", err)
		}
		if re2, err := Encode(again); err != nil || !bytes.Equal(re2, re) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\n%s", err, re, re2)
		}
	})
}
