package obs

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalTraceContext drives the decoder of the 25-byte trace context
// that rides inside every wrapped session key. Properties: it never panics,
// an accepted input is Valid, and Marshal returns exactly the input bytes.
//
// Seeds live in testdata/fuzz/FuzzUnmarshalTraceContext.
func FuzzUnmarshalTraceContext(f *testing.F) {
	f.Add(NewTraceContext().Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		tc, err := UnmarshalTraceContext(b)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %x decodes to invalid %+v", b, tc)
		}
		if got := tc.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("Marshal(Unmarshal(%x)) = %x", b, got)
		}
	})
}
