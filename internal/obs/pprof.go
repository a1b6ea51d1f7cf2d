package obs

import (
	"net/http"
	"net/http/pprof"
)

// MountPprof attaches the net/http/pprof handlers to mux under
// /debug/pprof/ without going through http.DefaultServeMux (the daemons
// never register anything globally; pprof exposure stays a per-mux,
// opt-in decision behind the -pprof flag).
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
