package memo_test

import (
	"context"
	"crypto/sha256"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"engarde/internal/faults"
	"engarde/internal/policy/memo"
)

func remoteKey(b byte) memo.Key {
	var k memo.Key
	k.Fn = sha256.Sum256([]byte{'f', b})
	k.Module = sha256.Sum256([]byte{'m', b})
	return k
}

// newPeer serves cache c over the remote protocol, as gatewayd does at
// /memoz, and returns the peer URL for a RemoteConfig.
func newPeer(t *testing.T, c *memo.Cache) string {
	t.Helper()
	srv := httptest.NewServer(http.StripPrefix("/memoz", memo.Handler(c)))
	t.Cleanup(srv.Close)
	return srv.URL + "/memoz"
}

func TestRemoteFetchInstallsLocally(t *testing.T) {
	peer, err := memo.Open(memo.Config{Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	k1, k2 := remoteKey(1), remoteKey(2)
	peer.Put(k1, []byte("payload-one"))

	local, err := memo.Open(memo.Config{Entries: 64, Remote: memo.RemoteConfig{
		Peers:    []string{newPeer(t, peer)},
		PutQueue: -1, // get-only: this test exercises the fetch direction
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	recs := local.FetchRemote([]memo.Key{k1, k2})
	if len(recs) != 1 || recs[0].Key != k1 || string(recs[0].Payload) != "payload-one" {
		t.Fatalf("FetchRemote = %+v, want one record for k1", recs)
	}
	// The fetched record is now resident: a local Get hits without another
	// round-trip.
	if payload, ok := local.Get(k1); !ok || string(payload) != "payload-one" {
		t.Fatalf("Get(k1) after fetch = %q, %v; want resident hit", payload, ok)
	}
	st := local.Stats()
	if st.RemoteHits != 1 || st.RemoteMisses != 1 || st.RemoteFaults != 0 {
		t.Fatalf("stats = %+v, want 1 remote hit, 1 miss, 0 faults", st)
	}
	pst := peer.Stats()
	if pst.PeerGets != 1 || pst.PeerServed != 1 {
		t.Fatalf("peer stats = %+v, want 1 get serving 1 record", pst)
	}
}

func TestRemotePutFlushesToPeer(t *testing.T) {
	peer, err := memo.Open(memo.Config{Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	local, err := memo.Open(memo.Config{Entries: 64, Remote: memo.RemoteConfig{
		Peers: []string{newPeer(t, peer)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	k := remoteKey(3)
	local.Put(k, []byte("flushed"))
	deadline := time.Now().Add(5 * time.Second)
	for peer.Stats().PeerStored == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer never received the put: local=%+v peer=%+v", local.Stats(), peer.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if payload, ok := peer.Get(k); !ok || string(payload) != "flushed" {
		t.Fatalf("peer Get = %q, %v; want flushed record", payload, ok)
	}
	// The peer stores the record before the flusher's own counter update,
	// so the local RemotePuts count can trail PeerStored by a beat.
	for local.Stats().RemotePuts != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("local stats = %+v, want RemotePuts=1", local.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRemoteDeadPeerTripsBreakerAndSkips(t *testing.T) {
	// A listener that is closed immediately: connection refused, fast.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String() + "/memoz"
	l.Close()

	local, err := memo.Open(memo.Config{Entries: 64, Remote: memo.RemoteConfig{
		Peers:            []string{dead},
		Timeout:          100 * time.Millisecond,
		BreakerThreshold: 2,
		ReprobeInterval:  time.Hour, // no reprobe inside this test
		PutQueue:         -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	keys := []memo.Key{remoteKey(4)}
	if recs := local.FetchRemote(keys); recs != nil {
		t.Fatalf("fetch from dead peer = %+v, want nil", recs)
	}
	local.FetchRemote(keys) // second consecutive failure trips
	st := local.Stats()
	if st.RemoteFaults != 2 || st.RemoteTrips != 1 || !st.RemoteOpen {
		t.Fatalf("stats after two failures = %+v, want 2 faults, 1 trip, open", st)
	}
	// Open breaker: the next fetch is skipped without touching the network.
	start := time.Now()
	local.FetchRemote(keys)
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("fetch while open took %v, want immediate skip", d)
	}
	if st := local.Stats(); st.RemoteSkipped != 1 || st.RemoteFaults != 2 {
		t.Fatalf("stats after skip = %+v, want RemoteSkipped=1 and no new fault", st)
	}
	// Local provisioning is untouched throughout: Put/Get still work.
	k := remoteKey(5)
	local.Put(k, []byte("local"))
	if payload, ok := local.Get(k); !ok || string(payload) != "local" {
		t.Fatalf("local tier degraded by remote failure: %q, %v", payload, ok)
	}
}

// chaosTransport dials through faults.ChaosConn so every byte the peer
// exchange reads or writes can be corrupted.
func chaosTransport(sched faults.Schedule) *http.Transport {
	dial := &net.Dialer{Timeout: time.Second}
	return &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dial.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return faults.WrapConn(conn, sched), nil
		},
	}
}

func TestRemoteByteFlippingPeerTripsBreaker(t *testing.T) {
	peer, err := memo.Open(memo.Config{Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	k := remoteKey(6)
	peer.Put(k, []byte("true-payload"))

	// Every read and write through the chaos conn flips one bit, so either
	// the request is mangled (peer answers 4xx) or the response is (HTTP
	// parse failure, or a record CRC mismatch caught by the decoder).
	// Whichever way each attempt dies, it must count as a peer fault and
	// never install a corrupt record.
	local, err := memo.Open(memo.Config{Entries: 64, Remote: memo.RemoteConfig{
		Peers:            []string{newPeer(t, peer)},
		Timeout:          2 * time.Second,
		BreakerThreshold: 3,
		ReprobeInterval:  time.Hour,
		PutQueue:         -1,
		Client: &http.Client{
			Timeout:   2 * time.Second,
			Transport: chaosTransport(faults.Schedule{Seed: 7, BitFlipProb: 1}),
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	for i := 0; i < 3; i++ {
		if recs := local.FetchRemote([]memo.Key{k}); len(recs) != 0 {
			// A flipped bit can, in principle, land somewhere harmless; with
			// every TCP segment corrupted it cannot land harmless everywhere.
			for _, rec := range recs {
				if string(rec.Payload) != "true-payload" {
					t.Fatalf("corrupt record installed: %q", rec.Payload)
				}
			}
		}
	}
	st := local.Stats()
	if st.RemoteFaults < 3 || st.RemoteTrips != 1 || !st.RemoteOpen {
		t.Fatalf("stats after byte-flipped fetches = %+v, want breaker tripped open", st)
	}
	// The corrupt exchanges must not have poisoned the local tier.
	if payload, ok := local.Get(k); ok && string(payload) != "true-payload" {
		t.Fatalf("poisoned local entry: %q", payload)
	}
}

// TestRemoteEmptyResponseIsFault: a peer frames even an empty answer with
// the record magic, so a 200 with no body (say, a Content-Length flipped
// to 0 on the wire) is a corrupt exchange that counts against the
// breaker, not a healthy miss that resets it.
func TestRemoteEmptyResponseIsFault(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	local, err := memo.Open(memo.Config{Entries: 64, Remote: memo.RemoteConfig{
		Peers:    []string{srv.URL},
		PutQueue: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if recs := local.FetchRemote([]memo.Key{remoteKey(9)}); len(recs) != 0 {
		t.Fatalf("FetchRemote = %+v from an empty response", recs)
	}
	if st := local.Stats(); st.RemoteFaults != 1 || st.RemoteMisses != 0 {
		t.Fatalf("stats = %+v, want the empty response counted as one fault", st)
	}
}

func TestRemoteHandlerRejectsGarbage(t *testing.T) {
	c, err := memo.Open(memo.Config{Entries: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(memo.Handler(c))
	defer srv.Close()

	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/get", "not-a-get-request", http.StatusBadRequest},
		{"/put", "not-a-record-batch", http.StatusBadRequest},
		{"/nope", "", http.StatusNotFound},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/octet-stream", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(srv.URL + "/get")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}
