package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// held returns the number of items l holds.
func held[T any](l *List[T]) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// TestListNeverExceedsBound: however many items are put, concurrently
// or not, the list holds at most Max of them, and the zero value's
// bound is DefaultMax.
func TestListNeverExceedsBound(t *testing.T) {
	l := List[*int]{Max: 3}
	for i := 0; i < 10; i++ {
		l.Put(new(int))
		if n := held(&l); n > 3 {
			t.Fatalf("after %d puts the list holds %d, bound 3", i+1, n)
		}
	}
	if n := held(&l); n != 3 {
		t.Fatalf("a full list holds %d, want 3", n)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x, ok := l.Get()
				if !ok {
					x = new(int)
				}
				l.Put(x)
				l.Put(new(int))
				if n := held(&l); n > 3 {
					t.Errorf("the list holds %d, bound 3", n)
					return
				}
			}
		}()
	}
	wg.Wait()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var z List[int]
	for i := 0; i < 10; i++ {
		z.Put(i)
	}
	if n, want := held(&z), DefaultMax(); n != want || want != 4 {
		t.Fatalf("the zero List holds %d at GOMAXPROCS 2, want DefaultMax %d = 4", n, want)
	}
}

// TestListLIFOAndReset: Get returns the most recently put item first,
// an empty list reports false, and Reset runs on every item Put is
// given, kept or dropped.
func TestListLIFOAndReset(t *testing.T) {
	resets := 0
	l := List[[]int]{Max: 2, Reset: func(xs []int) { clear(xs); resets++ }}
	a, b, c := []int{1}, []int{2}, []int{3}
	l.Put(a)
	l.Put(b)
	l.Put(c) // dropped: the list is full
	if resets != 3 || c[0] != 0 {
		t.Fatalf("Reset ran %d times and left the dropped item %v, want 3 and [0]", resets, c)
	}
	for _, want := range [][]int{b, a} {
		got, ok := l.Get()
		if !ok || &got[0] != &want[0] {
			t.Fatalf("Get = %p, %v; want %p, true", got, ok, want)
		}
	}
	if got, ok := l.Get(); ok || got != nil {
		t.Fatalf("an empty list's Get = %v, %v; want nil, false", got, ok)
	}
}
