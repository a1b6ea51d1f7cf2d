package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"engarde"
	"engarde/internal/obs"
)

// stampConn is the client's side of one session's connection. It counts
// the protocol's framed writes to find where the image stream starts and
// stamps the first and last image writes.
type stampConn struct {
	net.Conn

	// contentWrite is the index of the first write of the image stream:
	// every framed block is two writes (length header, body), and the
	// stream follows the optional routing preamble and the wrapped key.
	contentWrite int
	writes       int
	firstImage   time.Time
	lastImage    time.Time
}

func (c *stampConn) Write(b []byte) (int, error) {
	if c.writes == c.contentWrite {
		c.firstImage = time.Now()
	}
	c.writes++
	n, err := c.Conn.Write(b)
	c.lastImage = time.Now()
	return n, err
}

// outcome is one session as the client saw it.
type outcome struct {
	In       *input
	Start    time.Time // the session began: first dial
	Dialed   time.Time // connection established (last attempt)
	End      time.Time // verdict received
	First    time.Time // first image byte written (last attempt)
	Last     time.Time // last image byte written (last attempt)
	Verdict  engarde.Verdict
	Retries  int
	Err      error
	Wrong    bool   // verdict differs from the oracle
	TraceID  string // client-originated trace ID (traced runs)
	Attempts int
}

func (o *outcome) ok() bool { return o.Err == nil && !o.Wrong && o.Verdict.Code != engarde.CodeBusy }

// busyAttempts is the retry budget for busy verdicts: a session shed
// this many times counts as failed.
const busyAttempts = 6

// generator drives sessions at one fleet.
type generator struct {
	w      *workload
	addr   string
	client engarde.Client
	traced bool
}

func newGenerator(w *workload, f *fleet, traced bool) (*generator, error) {
	keys, err := f.platformKeys()
	if err != nil {
		return nil, err
	}
	expected, err := engarde.ExpectedMeasurement(engarde.SGXv2, engarde.EnclaveConfig{
		HeapPages: gatewayHeapPages, ClientPages: gatewayClientPages,
	})
	if err != nil {
		return nil, err
	}
	g := &generator{w: w, addr: f.entry(), traced: traced}
	g.client = engarde.Client{
		Expected: expected, PlatformKey: keys[0], PlatformKeys: keys[1:],
	}
	if w.Router {
		g.client.Route = &engarde.RouteHello{Tenant: "perfbench"}
	}
	return g, nil
}

// gatewayHeapPages and gatewayClientPages are gatewayd's defaults, which
// the client's expected measurement must match.
const (
	gatewayHeapPages   = 5000
	gatewayClientPages = 1024
)

// session runs one provisioning session to a verdict, retrying busy
// sheds within the budget after the hinted back-off.
func (g *generator) session(in *input) *outcome {
	o := &outcome{In: in, Start: time.Now()}
	contentWrite := 2 // wrapped session key, then the stream
	if g.client.Route != nil {
		contentWrite = 4 // routing preamble first
	}
	for o.Attempts < busyAttempts {
		o.Attempts++
		conn, err := net.Dial("tcp", g.addr)
		if err != nil {
			o.Err = fmt.Errorf("dial: %w", err)
			break
		}
		o.Dialed = time.Now()
		lc := &stampConn{Conn: conn, contentWrite: contentWrite}
		var v engarde.Verdict
		if g.traced {
			tr := obs.NewTrace("provision", nil)
			v, err = g.client.ProvisionTraced(lc, in.Image, tr)
			o.TraceID = tr.ID()
		} else {
			v, err = g.client.Provision(lc, in.Image)
		}
		o.End = time.Now()
		conn.Close()
		o.Verdict, o.Err, o.First, o.Last = v, err, lc.firstImage, lc.lastImage
		if err != nil || v.Code != engarde.CodeBusy {
			break
		}
		if o.Attempts < busyAttempts {
			o.Retries++
			time.Sleep(min(time.Duration(v.RetryAfterMillis)*time.Millisecond, time.Second))
		}
	}
	if o.Err == nil && o.Verdict.Code != engarde.CodeBusy && !in.Oracle.matches(o.Verdict) {
		o.Wrong = true
	}
	return o
}

// closedLoop keeps w.Clients sessions in flight until the window closes
// or every input has been sent, each client starting its next session
// when its verdict arrives. Inputs are handed out in sequence.
func (g *generator) closedLoop(window time.Duration, ins []*input) ([]*outcome, time.Time) {
	var (
		mu   sync.Mutex
		outs []*outcome
		next int
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(window)
	for c := 0; c < g.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				if next == len(ins) {
					mu.Unlock()
					return
				}
				in := ins[next]
				next++
				mu.Unlock()
				o := g.session(in)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, t0
}
