package bucket

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPopMinSortsInitialValues(t *testing.T) {
	q := New([]int32{3, 1, 2, 1, 0})
	var got []int32
	for {
		_, v, ok := q.PopMin()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int32{0, 1, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

func TestDecMovesItemEarlier(t *testing.T) {
	q := New([]int32{5, 3})
	q.Dec(0)
	q.Dec(0)
	q.Dec(0) // item 0 now at 2
	item, v, ok := q.PopMin()
	if !ok || item != 0 || v != 2 {
		t.Fatalf("PopMin = (%d, %d, %v), want (0, 2, true)", item, v, ok)
	}
	if q.Val(0) != 2 || !q.Popped(0) || q.Popped(1) {
		t.Fatal("Val/Popped bookkeeping wrong")
	}
}

func TestDecPanics(t *testing.T) {
	t.Run("popped item", func(t *testing.T) {
		q := New([]int32{0, 5})
		q.PopMin()
		defer func() {
			if recover() == nil {
				t.Fatal("Dec on popped item did not panic")
			}
		}()
		q.Dec(0)
	})
	t.Run("below zero", func(t *testing.T) {
		q := New([]int32{0})
		defer func() {
			if recover() == nil {
				t.Fatal("Dec below zero did not panic")
			}
		}()
		q.Dec(0)
	})
	t.Run("negative build", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("New with negative priority did not panic")
			}
		}()
		New([]int32{-1})
	})
}

func TestEmptyQueue(t *testing.T) {
	q := New(nil)
	if _, _, ok := q.PopMin(); ok {
		t.Fatal("PopMin on empty queue returned ok")
	}
}

// TestQuickAgainstNaive simulates a peeling workload: repeatedly pop the
// minimum, then decrement a random subset of items whose value exceeds the
// popped value (mirroring the guard in peeling algorithms), and checks the
// queue agrees with a naive O(n) implementation throughout, Popped
// included. Once drained, the queue's arrays must be the pop sequence,
// its inverse and the popped values.
func TestQuickAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(rng.Intn(12))
		}
		q := New(vals)
		naive := append([]int32(nil), vals...)
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		var seq, popped []int32
		for step := 0; step < n; step++ {
			item, v, ok := q.PopMin()
			if !ok {
				return false
			}
			// Naive min check.
			min := int32(1 << 30)
			for i, a := range alive {
				if a && naive[i] < min {
					min = naive[i]
				}
			}
			if v != min || naive[item] != v || !alive[item] {
				return false
			}
			alive[item] = false
			seq, popped = append(seq, item), append(popped, v)
			// Random guarded decrements.
			for i := 0; i < n; i++ {
				j := int32(rng.Intn(n))
				if alive[j] && naive[j] > v && rng.Intn(2) == 0 {
					q.Dec(j)
					naive[j]--
				}
			}
			// Values and membership must stay in sync.
			for i := int32(0); i < int32(n); i++ {
				if q.Val(i) != naive[i] || q.Popped(i) == alive[i] {
					return false
				}
			}
		}
		if _, _, ok := q.PopMin(); ok {
			return false
		}
		order, orderOf, kappa := q.Drained()
		if !slices.Equal(order, seq) {
			return false
		}
		for k, item := range seq {
			if orderOf[item] != int32(k) || kappa[item] != popped[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDrainedPanicsWithItemsLeft(t *testing.T) {
	q := New([]int32{0, 1})
	q.PopMin()
	defer func() {
		if recover() == nil {
			t.Fatal("Drained with an item left did not panic")
		}
	}()
	q.Drained()
}
