package bench

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current cycle model")

const figuresGolden = "testdata/figures.golden"

// TestFiguresGolden pins every number of Figures 3-5 and the scaling
// sweeps exactly, as engarde-bench -table prints them: the figures are
// cycle-model outputs, so any drift is a change to the model or to what
// the pipeline charges. A deliberate change reruns with -update and
// commits the new golden.
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for _, table := range FigureTables {
		if err := WriteTable(&got, table, ""); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
	}
	if *update {
		if err := os.WriteFile(figuresGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n  want %q\n  got  %q", figuresGolden, i+1, w, g)
		}
	}
}
