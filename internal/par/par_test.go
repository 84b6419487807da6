package par

import (
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			hits := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachSerialRunsInOrder(t *testing.T) {
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("one worker ran %v, want 0..4 in order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("one worker ran %d calls, want 5", len(order))
	}
}
