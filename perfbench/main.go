// Command perfbench is EnGarde's repository benchmark. It runs the shipped
// engarde-gatewayd and engarde-router binaries with their default flags,
// drives them from one load-generator process over loopback TCP, checks
// every verdict against an oracle fixed when the image was generated,
// and prints end-to-end metrics (or, with -trace 1, per-layer metrics) as
// one JSON object on the last line of standard output.
//
// Usage (run.sh builds the daemons and this program first):
//
//	perfbench -bin <dir with engarde-gatewayd, engarde-router> \
//	          -workload cold-mixed|fleet-repeat \
//	          -seed 1 -seconds 20 -trace 0
//
// See README.md beside this file for what each workload exercises and
// which layer metric each end-to-end metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"engarde"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: cold-mixed or fleet-repeat")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the engarde-gatewayd and engarde-router binaries")
	flag.StringVar(&o.workDir, "work", ".bench_build/run", "directory for daemon logs, key files and span dumps")
	flag.Parse()
	o.trace = trace == 1

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(detail))
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured. The result line is a projection
// of it; the rest is printed above the result for whoever reads the log.
type report struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  int        `json:"seconds"`
	Traced   bool       `json:"traced"`
	Inputs   inputProps `json:"inputs"`
	// Oracle holds the set-up reference provision of one image per kind.
	Oracle []oracleCheck `json:"oracle_confirmation"`
	// Mismatches lists every session whose verdict differed from the
	// oracle, with the seed that rebuilds its image.
	Mismatches []string `json:"mismatches,omitempty"`
	Failures   []string `json:"failures,omitempty"`

	// InputsExhausted is set when the window ended early because every
	// input built for it had been sent.
	InputsExhausted bool `json:"inputs_exhausted"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`

	SetupRuns   []float64 `json:"setup_s_runs"`
	SessionLat  Quantile  `json:"session_p50"`
	SessionTail Quantile  `json:"session_tail"`
	FBTV        Quantile  `json:"fbtv_p50"`
	Retries     int       `json:"client_retries"`
	// Samples are the raw per-session timings behind the quantiles, in
	// milliseconds, in session order.
	Samples map[string][]float64 `json:"samples_ms"`

	Metrics map[string]metric `json:"metrics"`
	// Layers holds the per-layer report of a traced run.
	Layers *layerReport `json:"layers,omitempty"`
}

func (r *report) correct() bool {
	for _, c := range r.Oracle {
		if !c.Match {
			return false
		}
	}
	if r.Layers != nil && len(r.Layers.Mismatches) > 0 {
		return false
	}
	return len(r.Mismatches) == 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	return result{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func run(o options) (*report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want cold-mixed or fleet-repeat)", o.workload)
	}
	if o.seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	for _, bin := range []string{"engarde-gatewayd", "engarde-router"} {
		if _, err := os.Stat(filepath.Join(o.binDir, bin)); err != nil {
			return nil, fmt.Errorf("daemon binary missing (build with run.sh): %w", err)
		}
	}
	window := time.Duration(o.seconds) * time.Second
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d-%d", w.Name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// Inputs: the warm-up images, then every image the window may send
	// at up to w.MaxRate sessions per second, all built before any
	// daemon starts.
	n := w.Warmup + int(math.Ceil(w.MaxRate*window.Seconds()))
	ins, err := w.images(o.seed, 0, n)
	if err != nil {
		return nil, err
	}
	warm, ins := ins[:w.Warmup], ins[w.Warmup:]
	rep := &report{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace}
	if rep.Oracle, err = confirmOracles(w, ins); err != nil {
		return nil, err
	}

	// Boot the topology w.SetupRuns times; the last boot serves the
	// window.
	var f *fleet
	for i := 0; i < w.SetupRuns; i++ {
		var d time.Duration
		f, d, err = bootFleet(w, o.binDir, dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		rep.SetupRuns = append(rep.SetupRuns, d.Seconds())
		if i < w.SetupRuns-1 {
			f.stop()
		}
	}
	defer f.stop()

	gen, err := newGenerator(w, f, o.trace)
	if err != nil {
		return nil, err
	}
	warmOuts, _ := gen.closedLoop(time.Minute, warm)
	for _, out := range warmOuts {
		if !out.ok() {
			return nil, fmt.Errorf("warm-up session (image seed %d) failed: %v %+v", out.In.Seed, out.Err, out.Verdict)
		}
	}

	cpu0, err := f.cpuTotal()
	if err != nil {
		return nil, err
	}
	outs, t0 := gen.closedLoop(window, ins)
	rep.InputsExhausted = len(outs) == len(ins)
	cpu1, err := f.cpuTotal()
	if err != nil {
		return nil, err
	}
	rss, err := f.rssTotal()
	if err != nil {
		return nil, err
	}

	var scraped *scrape
	if o.trace {
		if scraped, err = scrapeFleet(f); err != nil {
			return nil, err
		}
	}
	f.stop()

	rep.summarize(outs, t0, cpu1-cpu0, rss)
	if o.trace {
		rep.Layers, err = traceLayers(w, o.seed, ins, outs, scraped, dir)
		if err != nil {
			return nil, err
		}
		rep.Metrics = rep.Layers.metrics()
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: verdict mismatch:", m)
	}
	if rep.correct() {
		_ = os.RemoveAll(dir)
	}
	return rep, nil
}

// summarize computes the end-to-end metrics from the sessions of the
// window. Timings come from raw per-session samples by nearest rank.
func (r *report) summarize(outs []*outcome, t0 time.Time, cpu time.Duration, rss int64) {
	sent := make([]*input, len(outs))
	var lat, fbtv []time.Duration
	var last time.Time
	ok := 0
	for i, o := range outs {
		sent[i] = o.In
		r.Retries += o.Retries
		switch {
		case o.Err != nil:
			r.Failures = append(r.Failures, fmt.Sprintf("session %d (image seed %d): %v", o.In.Index, o.In.Seed, o.Err))
		case o.Verdict.Code == engarde.CodeBusy:
			r.Failures = append(r.Failures, fmt.Sprintf("session %d (image seed %d): busy after %d attempts", o.In.Index, o.In.Seed, o.Attempts))
		case o.Wrong:
			r.Mismatches = append(r.Mismatches, fmt.Sprintf("session %d (image seed %d, kind %s): want %+v, got %+v",
				o.In.Index, o.In.Seed, o.In.Kind, o.In.Oracle, o.Verdict))
		}
		if !o.ok() {
			continue
		}
		ok++
		lat = append(lat, o.End.Sub(o.Start))
		fbtv = append(fbtv, o.End.Sub(o.First))
		if o.End.After(last) {
			last = o.End
		}
	}
	r.Samples = map[string][]float64{"session": millis(lat), "fbtv": millis(fbtv)}
	r.Inputs = measureInputs(sent)
	r.Attempted, r.Failed = len(outs), len(outs)-ok
	latMs := sortedMillis(lat)
	r.SessionLat = nearestRank(latMs, 0.5)
	r.SessionTail = tailRank(latMs)
	r.FBTV = nearestRank(sortedMillis(fbtv), 0.5)

	failRatio := 0.0
	if len(outs) > 0 {
		failRatio = float64(r.Failed) / float64(len(outs))
	}
	perSession := 0.0
	if ok > 0 {
		perSession = float64(cpu) / float64(time.Millisecond) / float64(ok)
	}
	rate := 0.0
	if ok > 0 {
		rate = float64(ok) / last.Sub(t0).Seconds()
	}
	r.Metrics = map[string]metric{
		"sessions_per_s":            {rate, "1/s"},
		"session_p50_ms":            {r.SessionLat.Value, "ms"},
		"session_tail_ms":           {r.SessionTail.Value, "ms"},
		"fbtv_p50_ms":               {r.FBTV.Value, "ms"},
		"ok_ratio":                  {1 - failRatio, "ratio"},
		"setup_s":                   {median(r.SetupRuns), "s"},
		"server_cpu_ms_per_session": {perSession, "ms"},
		"server_peak_rss_mb":        {float64(rss) / (1 << 20), "MiB"},
	}
}

// oracleCheck is one set-up reference provision.
type oracleCheck struct {
	Kind      string          `json:"kind"`
	ImageSeed int64           `json:"image_seed"`
	Want      oracle          `json:"want"`
	Got       engarde.Verdict `json:"got"`
	Match     bool            `json:"match"`
}

// confirmOracles provisions the first image of each kind in-process,
// untimed, through the same library the gatewayd serves with, and
// records whether its verdict is the one the oracle fixed. Two
// provisions run at a time.
func confirmOracles(w *workload, ins []*input) ([]oracleCheck, error) {
	pols, err := engarde.ParsePolicies(w.Policies)
	if err != nil {
		return nil, err
	}
	provider, err := engarde.NewProvider(engarde.ProviderConfig{})
	if err != nil {
		return nil, err
	}
	var firsts []*input
	seen := map[string]bool{}
	for _, in := range ins {
		if !seen[in.Kind] {
			seen[in.Kind] = true
			firsts = append(firsts, in)
		}
	}
	checks := make([]oracleCheck, len(firsts))
	errs := make([]error, len(firsts))
	var wg sync.WaitGroup
	slots := make(chan struct{}, 2)
	for i, in := range firsts {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			encl, err := provider.CreateEnclave(engarde.EnclaveConfig{
				Policies: pols, HeapPages: gatewayHeapPages, ClientPages: gatewayClientPages,
			})
			if err != nil {
				errs[i] = err
				return
			}
			rep, err := encl.Provision(in.Image)
			encl.Destroy()
			if err != nil {
				errs[i] = fmt.Errorf("reference provision of image seed %d: %w", in.Seed, err)
				return
			}
			v := engarde.VerdictForReport(rep)
			checks[i] = oracleCheck{Kind: in.Kind, ImageSeed: in.Seed, Want: in.Oracle, Got: v, Match: in.Oracle.matches(v)}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	sort.Slice(checks, func(i, j int) bool { return checks[i].Kind < checks[j].Kind })
	return checks, nil
}
