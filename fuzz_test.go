package engarde

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseRouteHello drives the routing-preamble parser, which the router
// and every gatewayd run on the first frame an unauthenticated peer sends.
// Properties:
//   - it never panics;
//   - an empty frame, one longer than MaxRouteHelloBytes, or one not
//     starting with '{' is rejected;
//   - an accepted hello json-marshals and re-parses to an equal value,
//     unless the canonical encoding outgrows MaxRouteHelloBytes (json
//     escapes '<' as six bytes), in which case the bound rejects it.
//
// Seeds live in testdata/fuzz/FuzzParseRouteHello.
func FuzzParseRouteHello(f *testing.F) {
	f.Add(bytes.Repeat([]byte{'{'}, MaxRouteHelloBytes+1))
	f.Fuzz(func(t *testing.T, frame []byte) {
		rh, ok := ParseRouteHello(frame)
		if !ok {
			return
		}
		if len(frame) == 0 || len(frame) > MaxRouteHelloBytes || frame[0] != '{' {
			t.Fatalf("accepted a %d-byte frame starting %.8q", len(frame), frame)
		}
		if rh.Proto != RouteProto {
			t.Fatalf("accepted proto %q", rh.Proto)
		}
		again, err := json.Marshal(rh)
		if err != nil {
			t.Fatalf("accepted hello %+v does not marshal: %v", rh, err)
		}
		got, ok := ParseRouteHello(again)
		if len(again) > MaxRouteHelloBytes {
			if ok {
				t.Fatalf("re-parse accepted a %d-byte frame", len(again))
			}
			return
		}
		if !ok || got != rh {
			t.Fatalf("re-parse of %s = %+v, %v; want %+v", again, got, ok, rh)
		}
	})
}
