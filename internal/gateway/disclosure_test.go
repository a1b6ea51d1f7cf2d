package gateway_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"engarde"
	"engarde/internal/elf64"
	"engarde/internal/gateway"
	"engarde/internal/nacl"
	"engarde/internal/obs"
	"engarde/internal/policy/memo"
	"engarde/internal/symtab"
)

// syncBuffer is a bytes.Buffer safe for a logger writing from gateway
// workers while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// contentDigests returns the SHA-256 of image and of every function the
// function-result cache digests for it: the same fingerprint pass the
// gateway's enclaves run (memo.NewSession).
func contentDigests(t *testing.T, image []byte) [][sha256.Size]byte {
	t.Helper()
	f, err := elf64.Parse(image)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := symtab.FromELF(f)
	if err != nil {
		t.Fatal(err)
	}
	texts := f.TextSections()
	if len(texts) != 1 {
		t.Fatalf("%d text sections, want 1", len(texts))
	}
	prog, err := nacl.DecodeProgramTraced(texts[0].Data, texts[0].Addr, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memo.Open(memo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := memo.NewSession(cache, prog, tab, nil)
	if sess.NumFuncs() == 0 {
		t.Fatal("fingerprint pass digested no functions")
	}
	digests := [][sha256.Size]byte{sha256.Sum256(image)}
	for _, fn := range tab.Functions() {
		if d, ok := sess.Digest(fn.Addr); ok {
			digests = append(digests, d)
		}
	}
	return digests
}

// TestAdminSurfaceDisclosesNoContentDigest checks the host-facing half of
// the disclosure contract: after a default gateway (gatewayd's default
// stack-protector policy, function-result cache on) serves one compliant
// and one rejected image, nothing it serves on its admin surface or writes
// to its log or trace directory contains the SHA-256 of either image or of
// any of their functions, raw or encoded.
func TestAdminSurfaceDisclosesNoContentDigest(t *testing.T) {
	var logs syncBuffer
	traceDir := t.TempDir()
	sink, err := obs.NewSink(0, traceDir)
	if err != nil {
		t.Fatal(err)
	}
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:  engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		Logger:    slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
		TraceSink: sink,
	})

	compliant := buildImage(t, "disclose-ok", 901, true)
	rejected := buildImage(t, "disclose-bad", 902, false)
	if v, err := provisionOnce(t, ln, client, compliant); err != nil || !v.Compliant {
		t.Fatalf("compliant image: verdict %+v err %v", v, err)
	}
	if v, err := provisionOnce(t, ln, client, rejected); err != nil || v.Compliant {
		t.Fatalf("rejected image: verdict %+v err %v", v, err)
	}
	waitFor(t, "2 served sessions", func() bool { return gw.Stats().Served == 2 })
	if fc := gw.Stats().FnCache; fc == nil || fc.Misses == 0 || fc.Entries == 0 {
		t.Fatalf("fn-cache stats %+v: the sessions never digested a function", fc)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	admin := gw.AdminHandler()
	sources := map[string][]byte{
		"log": logs.Bytes(),
	}
	for _, target := range []string{"/statsz", "/metricsz", "/tracez", "/tracez?format=chrome"} {
		sources[target] = scrape(t, admin, target).Body.Bytes()
	}
	err = filepath.WalkDir(traceDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		sources["trace file "+d.Name()] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sources["/tracez"]) == 0 || len(sources["log"]) == 0 {
		t.Fatal("nothing to scan: /tracez or the log is empty")
	}

	var digests [][sha256.Size]byte
	for _, img := range [][]byte{compliant, rejected} {
		digests = append(digests, contentDigests(t, img)...)
	}
	for i, d := range digests {
		forms := map[string][]byte{
			"raw":       d[:],
			"hex":       []byte(hex.EncodeToString(d[:])),
			"HEX":       []byte(strings.ToUpper(hex.EncodeToString(d[:]))),
			"base64":    []byte(base64.StdEncoding.EncodeToString(d[:])),
			"base64url": []byte(base64.RawURLEncoding.EncodeToString(d[:])),
		}
		for name, body := range sources {
			for form, needle := range forms {
				if bytes.Contains(body, needle) {
					t.Errorf("%s discloses content digest #%d (%s form %x)", name, i, form, d[:8])
				}
			}
		}
	}
}
