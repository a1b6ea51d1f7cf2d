package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	MountPprof(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}
