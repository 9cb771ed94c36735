package dirty

import (
	"testing"

	"repro/internal/xrand"
)

// pageCounts straddle the one-word boundary and leave a partial final
// word, so MarkAll's tail mask is exercised on both sides.
var pageCounts = []int{1, 63, 64, 65, 4097}

// drain pops every page and checks they come out strictly ascending.
func drain(t *testing.T, tb *Table) []int {
	t.Helper()
	var got []int
	for p, ok := tb.Next(); ok; p, ok = tb.Next() {
		if len(got) > 0 && p <= got[len(got)-1] {
			t.Fatalf("Next popped %d after %d: not ascending", p, got[len(got)-1])
		}
		got = append(got, p)
	}
	return got
}

func TestZeroTableIsDisarmed(t *testing.T) {
	var tb Table
	tb.Mark(0, 10)
	tb.MarkAll()
	if p, ok := tb.Next(); ok {
		t.Fatalf("disarmed table popped page %d", p)
	}
}

// TestTableMatchesReference drives random Mark/MarkAll/Next/re-Arm
// sequences against a map reference: every popped page must be dirty in
// the reference, and Next must report clean exactly when the reference
// is empty. Each run ends with MarkAll and a drain, so the tail mask is
// checked at every page count whatever the random sequence did.
func TestTableMatchesReference(t *testing.T) {
	rng := xrand.New(1)
	for _, pages := range pageCounts {
		var tb Table
		ref := map[int]bool{}
		tb.Arm(pages)
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(20); {
			case op < 10:
				lo := rng.Intn(pages)
				hi := lo - 1 + rng.Intn(min(pages-lo, 130)+1) // hi = lo-1 marks nothing
				tb.Mark(lo, hi)
				for p := lo; p <= hi; p++ {
					ref[p] = true
				}
			case op < 17:
				p, ok := tb.Next()
				if ok != (len(ref) > 0) {
					t.Fatalf("pages=%d step %d: Next ok=%v with %d reference pages dirty", pages, step, ok, len(ref))
				}
				if ok {
					if !ref[p] {
						t.Fatalf("pages=%d step %d: Next popped clean page %d", pages, step, p)
					}
					delete(ref, p)
				}
			case op < 18:
				tb.MarkAll()
				for p := 0; p < pages; p++ {
					ref[p] = true
				}
			default:
				tb.Arm(pages)
				clear(ref)
			}
		}
		got := drain(t, &tb)
		if len(got) != len(ref) {
			t.Fatalf("pages=%d: final drain popped %d pages, reference has %d", pages, len(got), len(ref))
		}
		for _, p := range got {
			if !ref[p] {
				t.Fatalf("pages=%d: final drain popped clean page %d", pages, p)
			}
		}
		tb.MarkAll()
		if got := drain(t, &tb); len(got) != pages || got[pages-1] != pages-1 {
			t.Fatalf("pages=%d: MarkAll drained %d pages, want exactly [0..%d]",
				pages, len(got), pages-1)
		}
	}
}

// TestReArmResizes checks that re-arming for a different page count
// drops every earlier mark and bounds MarkAll to the new count.
func TestReArmResizes(t *testing.T) {
	var tb Table
	tb.Arm(4097)
	tb.MarkAll()
	tb.Arm(65)
	if p, ok := tb.Next(); ok {
		t.Fatalf("re-armed table popped %d", p)
	}
	tb.MarkAll()
	if got := drain(t, &tb); len(got) != 65 {
		t.Fatalf("MarkAll after re-arm to 65 pages drained %d", len(got))
	}
	tb.Arm(4097)
	tb.Mark(4096, 4096)
	if got := drain(t, &tb); len(got) != 1 || got[0] != 4096 {
		t.Fatalf("re-grown table drained %v, want [4096]", got)
	}
}

func TestArmReuseAllocFree(t *testing.T) {
	var tb Table
	tb.Arm(4097)
	allocs := testing.AllocsPerRun(100, func() {
		tb.Mark(3, 900)
		for _, ok := tb.Next(); ok; _, ok = tb.Next() {
		}
		tb.MarkAll()
		tb.Arm(4097)
	})
	if allocs != 0 {
		t.Fatalf("mark/drain/re-arm allocated %.1f times per run, want 0", allocs)
	}
}
