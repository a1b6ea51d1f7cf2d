package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint strictly validates a Prometheus text exposition (format 0.0.4) and
// returns every problem found. It is the exposition reader (exposition.go)
// plus shape checks; the CI metrics-conformance job and the scrape tests
// both run scrape output through it.
//
// Checks: comment/sample grammar, metric and label name charsets, escape
// sequences in label values, TYPE declared once and before samples, known
// TYPE values, every sample belonging to a declared family, no duplicate
// series, parseable values, and histogram shape (le on every bucket, an
// le="+Inf" bucket equal to _count, _sum present, cumulative bucket counts
// non-decreasing in le order).
func Lint(r io.Reader) []error {
	l := &linter{
		typ:     make(map[string]string),
		help:    make(map[string]bool),
		seen:    make(map[string]int),
		sampled: make(map[string]bool),
		hists:   make(map[string]*histState),
	}
	if err := readText(r, l.line); err != nil {
		l.errs = append(l.errs, fmt.Errorf("read: %w", err))
	}
	l.finish()
	return l.errs
}

type histState struct {
	line    int
	buckets map[float64]float64 // le → cumulative count
	sum     *float64
	count   *float64
}

type linter struct {
	errs    []error
	typ     map[string]string
	help    map[string]bool
	seen    map[string]int        // name + canonical labels → first line
	sampled map[string]bool       // family names that already emitted samples
	hists   map[string]*histState // histogram base + "|" + labels sans le
}

func (l *linter) errf(line int, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (l *linter) line(ln textLine) {
	switch {
	case ln.err != nil:
		l.errf(ln.n, "%v", ln.err)
	case ln.kind == lineHelp:
		if l.help[ln.name] {
			l.errf(ln.n, "second HELP for metric %s", ln.name)
		}
		l.help[ln.name] = true
	case ln.kind == lineType:
		if _, dup := l.typ[ln.name]; dup {
			l.errf(ln.n, "second TYPE for metric %s", ln.name)
			return
		}
		if l.sampled[ln.name] {
			l.errf(ln.n, "TYPE for %s appears after its samples", ln.name)
		}
		l.typ[ln.name] = ln.text
	case ln.kind == lineSample:
		l.sample(ln.n, ln.sample)
	}
}

func (l *linter) sample(n int, smp Sample) {
	name, labels, value := smp.Name, smp.Labels, smp.Value
	fam := sampleFamily(name, l.typ)
	l.sampled[name] = true
	l.sampled[fam] = true
	t, declared := l.typ[fam]
	if !declared {
		l.errf(n, "sample %s has no TYPE declaration", name)
		return
	}

	key := name + "{" + canonicalLintLabels(labels) + "}"
	if first, dup := l.seen[key]; dup {
		l.errf(n, "duplicate series %s (first at line %d)", key, first)
		return
	}
	l.seen[key] = n

	if t != "histogram" {
		for _, lb := range labels {
			if lb.Key == "le" {
				l.errf(n, "label le on non-histogram metric %s", name)
			}
		}
		return
	}

	// Histogram bookkeeping, grouped by base name + labels without le.
	var le *float64
	rest := make([]Label, 0, len(labels))
	for _, lb := range labels {
		if lb.Key == "le" {
			v, err := strconv.ParseFloat(lb.Value, 64)
			if err != nil {
				l.errf(n, "unparseable le=%q on %s", lb.Value, name)
				return
			}
			le = &v
			continue
		}
		rest = append(rest, lb)
	}
	hk := fam + "|" + canonicalLintLabels(rest)
	h := l.hists[hk]
	if h == nil {
		h = &histState{line: n, buckets: make(map[float64]float64)}
		l.hists[hk] = h
	}
	switch {
	case name == fam+"_bucket":
		if le == nil {
			l.errf(n, "histogram bucket %s missing le label", name)
			return
		}
		h.buckets[*le] = value
	case name == fam+"_sum":
		h.sum = &value
	case name == fam+"_count":
		h.count = &value
	default:
		l.errf(n, "sample %s under histogram %s is not _bucket/_sum/_count", name, fam)
	}
}

func (l *linter) finish() {
	keys := make([]string, 0, len(l.hists))
	for k := range l.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := l.hists[k]
		fam := strings.SplitN(k, "|", 2)[0]
		inf, hasInf := h.buckets[math.Inf(1)]
		if !hasInf {
			l.errf(h.line, "histogram %s has no le=\"+Inf\" bucket", fam)
		}
		if h.count == nil {
			l.errf(h.line, "histogram %s missing _count", fam)
		} else if hasInf && *h.count != inf {
			l.errf(h.line, "histogram %s: _count %v != +Inf bucket %v", fam, *h.count, inf)
		}
		if h.sum == nil {
			l.errf(h.line, "histogram %s missing _sum", fam)
		}
		les := make([]float64, 0, len(h.buckets))
		for le := range h.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		for i := 1; i < len(les); i++ {
			if h.buckets[les[i]] < h.buckets[les[i-1]] {
				l.errf(h.line, "histogram %s: bucket counts not cumulative (le=%v count %v < le=%v count %v)",
					fam, les[i], h.buckets[les[i]], les[i-1], h.buckets[les[i-1]])
				break
			}
		}
	}
}

func canonicalLintLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
