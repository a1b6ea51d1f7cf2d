package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the repository's one reader of the Prometheus text
// exposition format (0.0.4). It is an independent re-implementation of the
// format rules — not a call back into the Registry's writer — so the
// checks built on it can catch the writer's own bugs. Lint is this reader
// plus shape checks; ParseText is this reader plus family grouping, for
// consumers such as the fleet aggregator.

// Sample is one series sample of a parsed exposition.
type Sample struct {
	// Name is the sample name as written — for histograms this includes
	// the _bucket/_sum/_count suffix.
	Name   string
	Labels []Label
	Value  float64
}

// Family is one metric family of a parsed exposition: its TYPE, HELP, and
// every sample that folds onto its base name.
type Family struct {
	Name    string
	Type    string // counter, gauge, histogram, summary, untyped
	Help    string
	Samples []Sample
}

// ParseText reads an exposition into families, in declaration order.
// Samples without a TYPE declaration are grouped into an implicit untyped
// family. It rejects the first line that breaks the grammar, but does not
// check histogram shape, duplicates or declaration order — that is Lint's
// job.
func ParseText(r io.Reader) ([]Family, error) {
	var (
		order []string
		fams  = make(map[string]*Family)
		typ   = make(map[string]string)
	)
	family := func(name string) *Family {
		if f, ok := fams[name]; ok {
			return f
		}
		f := &Family{Name: name, Type: "untyped"}
		fams[name] = f
		order = append(order, name)
		return f
	}
	var bad error
	err := readText(r, func(l textLine) {
		switch {
		case bad != nil:
		case l.err != nil:
			bad = fmt.Errorf("obs: line %d: %w", l.n, l.err)
		case l.kind == lineHelp:
			family(l.name).Help = l.text
		case l.kind == lineType:
			family(l.name).Type = l.text
			typ[l.name] = l.text
		case l.kind == lineSample:
			f := family(sampleFamily(l.sample.Name, typ))
			f.Samples = append(f.Samples, l.sample)
		}
	})
	if bad != nil {
		return nil, bad
	}
	if err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	out := make([]Family, 0, len(order))
	for _, name := range order {
		out = append(out, *fams[name])
	}
	return out, nil
}

type lineKind int

const (
	lineComment lineKind = iota // a comment other than HELP/TYPE, ignored
	lineHelp
	lineType
	lineSample
)

// textLine is one non-blank line of an exposition as the reader sees it.
// A line that breaks the grammar carries only n and err.
type textLine struct {
	n      int
	kind   lineKind
	name   string // HELP/TYPE: the metric name
	text   string // HELP: the help text; TYPE: the type
	sample Sample // lineSample
	err    error
}

// readText scans r and calls fn once per non-blank line. The returned
// error is a read error; grammar errors are reported per line.
func readText(r io.Reader, fn func(textLine)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		s := sc.Text()
		if strings.TrimSpace(s) == "" {
			continue
		}
		l := textLine{n: n}
		if strings.HasPrefix(s, "#") {
			l.kind, l.name, l.text, l.err = parseComment(s)
		} else {
			l.kind = lineSample
			l.sample, l.err = parseSample(s)
		}
		fn(l)
	}
	return sc.Err()
}

// parseComment parses `# HELP name text` and `# TYPE name type`; any other
// comment is lineComment.
func parseComment(s string) (lineKind, string, string, error) {
	fields := strings.SplitN(s, " ", 4)
	if len(fields) < 2 {
		return lineComment, "", "", nil // bare comment, legal and ignored
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return 0, "", "", fmt.Errorf("malformed HELP line %q", s)
		}
		var help string
		if len(fields) == 4 {
			help = fields[3]
		}
		return lineHelp, fields[2], help, nil
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return 0, "", "", fmt.Errorf("malformed TYPE line %q", s)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return 0, "", "", fmt.Errorf("unknown TYPE %q for metric %s", fields[3], fields[2])
		}
		return lineType, fields[2], fields[3], nil
	}
	return lineComment, "", "", nil
}

// sampleFamily maps a sample name to its declared family, folding
// histogram/summary suffixes onto the base name.
func sampleFamily(name string, typ map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := typ[base]; ok && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return name
}

// parseSample parses `name{labels} value [timestamp]`.
func parseSample(s string) (Sample, error) {
	i := 0
	for i < len(s) && isNameChar(s[i], i == 0) {
		i++
	}
	smp := Sample{Name: s[:i]}
	if !validMetricName(smp.Name) {
		return Sample{}, fmt.Errorf("invalid metric name in sample %q", s)
	}
	if i < len(s) && s[i] == '{' {
		var err error
		smp.Labels, i, err = parseLabels(s, i+1)
		if err != nil {
			return Sample{}, err
		}
	}
	rest := strings.Fields(s[i:])
	if len(rest) < 1 || len(rest) > 2 {
		return Sample{}, fmt.Errorf("expected value [timestamp] after series in %q", s)
	}
	// strconv accepts "+Inf"/"-Inf"/"NaN" in the casings Prometheus emits.
	v, err := strconv.ParseFloat(rest[0], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("unparseable value %q in %q", rest[0], s)
	}
	smp.Value = v
	if len(rest) == 2 {
		if _, err := strconv.ParseInt(rest[1], 10, 64); err != nil {
			return Sample{}, fmt.Errorf("unparseable timestamp %q in %q", rest[1], s)
		}
	}
	return smp, nil
}

// parseLabels parses from just after '{' through '}', decoding the three
// escape sequences the format defines for label values (\\ \" \n).
func parseLabels(s string, i int) ([]Label, int, error) {
	var out []Label
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return out, i + 1, nil
		}
		j := i
		for j < len(s) && isLabelChar(s[j], j == i) {
			j++
		}
		key := s[i:j]
		if key == "" {
			return nil, 0, fmt.Errorf("invalid label name at column %d in %q", i+1, s)
		}
		if j >= len(s) || s[j] != '=' {
			return nil, 0, fmt.Errorf("expected = after label %s in %q", key, s)
		}
		j++
		if j >= len(s) || s[j] != '"' {
			return nil, 0, fmt.Errorf("label value for %s not quoted in %q", key, s)
		}
		j++
		var val strings.Builder
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
				if j >= len(s) {
					break
				}
				switch s[j] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, 0, fmt.Errorf("invalid escape \\%c in label %s of %q", s[j], key, s)
				}
				j++
				continue
			}
			val.WriteByte(s[j])
			j++
		}
		if j >= len(s) {
			return nil, 0, fmt.Errorf("unterminated label value for %s in %q", key, s)
		}
		out = append(out, Label{Key: key, Value: val.String()})
		i = j + 1
	}
}

func isNameChar(c byte, first bool) bool {
	if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func isLabelChar(c byte, first bool) bool {
	if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
