package stackprot

import (
	"fmt"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/nacl"
	"engarde/internal/policy"
	"engarde/internal/symtab"
	"engarde/internal/x86"
)

// manySlots is a hand-built program with one function f that stores the
// canary to k distinct stack slots and then compares k−⌈k/3⌉ of them
// (every third slot has no compare), each compare followed by jne to a
// call of __stack_chk_fail. It is the index's adversarial shape: k
// candidates, k keys, and a reference search that rescans f for every one.
type manySlots struct {
	ctx     *policy.Context
	n       int   // instructions in f
	cmpAt   []int // f-relative index of each slot's compare, -1 if none
	present int   // slots with a compare
}

const worstBase = 0x10000

func buildManySlots(tb testing.TB, k int) *manySlots {
	tb.Helper()
	slot := func(s int) x86.Mem {
		return x86.Mem{Base: x86.RegSP, Index: x86.RegNone, Disp: int64(8 * s)}
	}
	var a x86.Assembler
	for s := 0; s < k; s++ {
		a.MovRegFS(x86.RegAX, CanaryTLSOffset)
		a.MovMemReg(slot(s), x86.RegAX)
	}
	ms := &manySlots{cmpAt: make([]int, k)}
	idx := 2 * k
	for s := 0; s < k; s++ {
		if s%3 == 2 {
			ms.cmpAt[s] = -1
			continue
		}
		a.MovRegFS(x86.RegAX, CanaryTLSOffset)
		a.CmpRegMem(x86.RegAX, slot(s))
		a.JccLabel(x86.CondNE, "fail")
		ms.cmpAt[s] = idx + 1
		idx += 3
		ms.present++
	}
	a.Ret()
	a.Label("fail")
	a.CallSym(FailFunc)
	failOff := a.Len()
	a.Label(FailFunc)
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil || len(fixups) != 0 {
		tb.Fatalf("assemble: %v, %d unresolved fixups", err, len(fixups))
	}
	insts, err := x86.DecodeAll(code, worstBase)
	if err != nil {
		tb.Fatal(err)
	}
	ms.n = idx + 2 // the ret and the call
	if insts[ms.n].Addr != worstBase+uint64(failOff) {
		tb.Fatalf("layout: f has %d instructions, __stack_chk_fail at %#x", ms.n, insts[ms.n].Addr)
	}
	tab := symtab.New()
	tab.Add(symtab.Entry{Name: "f", Addr: worstBase, Size: uint64(failOff)})
	tab.Add(symtab.Entry{Name: FailFunc, Addr: worstBase + uint64(failOff), Size: 1})
	ms.ctx = &policy.Context{
		Program: &nacl.Program{Insts: insts, Code: code, Base: worstBase, End: worstBase + uint64(len(code))},
		Symbols: tab,
	}
	return ms
}

// TestManySlotsChargesClosedForm checks the index against the closed form
// of the paper's search on the adversarial shape: the outer loop visits
// all n instructions; each of the k stores costs 2 pattern steps plus a
// search of j+1 visits (its slot's compare at j) or n visits (no
// compare), 1 scan and 2 pattern steps per visit; each found chain adds 1
// provenance step, 3 chain steps and 1 symbol lookup.
func TestManySlotsChargesClosedForm(t *testing.T) {
	for _, k := range []int{1, 2, 3, 10, 100, 1000} {
		ms := buildManySlots(t, k)
		var visits uint64
		for _, j := range ms.cmpAt {
			if j < 0 {
				visits += uint64(ms.n)
			} else {
				visits += uint64(j) + 1
			}
		}
		want := map[cycles.Unit]uint64{
			cycles.UnitScanInst:    uint64(ms.n) + visits,
			cycles.UnitPatternStep: 2*uint64(k) + 2*visits + 4*uint64(ms.present),
			cycles.UnitSymLookup:   uint64(ms.present),
		}
		ctx := *ms.ctx
		ctx.Counter = cycles.NewCounter(cycles.DefaultModel())
		var idx slotIndex
		witness, err := New().checkFunction(&ctx, &idx, "f", 0, ms.n)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if fail := ctx.Program.Insts[ms.n-1].Addr; witness != fail {
			t.Errorf("k=%d: witness %#x, want the jne target %#x", k, witness, fail)
		}
		for u, w := range want {
			if got := ctx.Counter.Units(cycles.PhasePolicy, u); got != w {
				t.Errorf("k=%d: %v = %d, closed form %d", k, u, got, w)
			}
		}
		if k <= 100 {
			// The reference search itself agrees with the closed form.
			rctx := *ms.ctx
			rctx.Counter = cycles.NewCounter(cycles.DefaultModel())
			if _, err := (&refModule{}).checkFunction(&rctx, "f", 0, ms.n); err != nil {
				t.Fatalf("k=%d: reference: %v", k, err)
			}
			for u, w := range want {
				if got := rctx.Counter.Units(cycles.PhasePolicy, u); got != w {
					t.Errorf("k=%d: reference %v = %d, closed form %d", k, u, got, w)
				}
			}
		}
	}
}

// BenchmarkStackprotWorstCase times the check of the adversarial shape at
// growing k. The reference search is Θ(k²); the index keeps ns/inst flat
// up to the log k of its sort and lookups.
func BenchmarkStackprotWorstCase(b *testing.B) {
	for _, k := range []int{100, 1000, 10000} {
		ms := buildManySlots(b, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ctx := *ms.ctx
			ctx.Counter = cycles.NewCounter(cycles.DefaultModel())
			m := New()
			var idx slotIndex
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.checkFunction(&ctx, &idx, "f", 0, ms.n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ms.n), "ns/inst")
		})
	}
}
