package telemetry

import (
	"reflect"
	"testing"
)

// TestRingEqualsAppendSlice holds Ring to the plainest reference: an
// append-only slice whose last Len entries are what the ring keeps.
// Every size, every put count up to three wraps, every kind of Last
// and AppendLast.
func TestRingEqualsAppendSlice(t *testing.T) {
	for _, size := range []int{1, 2, 7} {
		for puts := 0; puts <= 3*size; puts++ {
			r := NewRing[int](size)
			var ref []int
			for i := 1; i <= puts; i++ {
				slot := r.Next()
				if evicted := len(ref) - size; evicted >= 0 {
					if *slot != ref[evicted] {
						t.Fatalf("size %d put %d: Next's slot holds %d, want the evicted %d", size, i, *slot, ref[evicted])
					}
				} else if *slot != 0 {
					t.Fatalf("size %d put %d: unwrapped slot holds %d", size, i, *slot)
				}
				*slot = i
				ref = append(ref, i)
			}
			held := min(len(ref), size)
			if r.Total() != uint64(puts) || r.Len() != size || r.Held() != held {
				t.Fatalf("size %d puts %d: Total %d Len %d Held %d", size, puts, r.Total(), r.Len(), r.Held())
			}
			for _, n := range []int{-1, 0, 1, held - 1, held, held + 1, 3 * size} {
				want := ref[len(ref)-held:]
				if n > 0 && n < held {
					want = ref[len(ref)-n:]
				}
				got := r.Last(n)
				if got == nil || !reflect.DeepEqual(got, append([]int{}, want...)) {
					t.Fatalf("size %d puts %d Last(%d) = %v, want %v", size, puts, n, got, want)
				}
				if got := r.AppendLast([]int{-1}, n); !reflect.DeepEqual(got, append([]int{-1}, want...)) {
					t.Fatalf("size %d puts %d AppendLast(_, %d) = %v, want -1 then %v", size, puts, n, got, want)
				}
			}
		}
	}
}

// TestRingPutAndLastCopy: Put is Next plus a store, and Last hands back
// a copy the ring does not write through.
func TestRingPutAndLastCopy(t *testing.T) {
	r := NewRing[string](0) // clamps to one slot
	if r.Len() != 1 {
		t.Fatalf("NewRing(0).Len() = %d, want 1", r.Len())
	}
	r.Put("a")
	got := r.Last(1)
	r.Put("b")
	if got[0] != "a" || r.Last(0)[0] != "b" || r.Total() != 2 {
		t.Fatalf("Last copy %q, ring %q, total %d", got, r.Last(0), r.Total())
	}
}
