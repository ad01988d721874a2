// Package freelist holds List, a bounded free list for objects too
// costly to build per call: the forward arenas a network hands out, the
// validator's scoring states and dvserve's request records and decode
// windows.
package freelist

import (
	"runtime"
	"sync"
)

// List is a mutex-guarded LIFO stack of at most Max items. Get takes
// the most recently put item; Put hands one back once no one reads or
// writes it any more, and drops it, for the GC to free, when the list
// is full. Unlike a sync.Pool, a List is never emptied by a GC and
// hands its items to whichever goroutine asks next, so a warm caller
// never rebuilds what it gave back. It only ever holds as many items as
// were in use at once, up to Max.
//
// The zero value is ready to use: it holds at most DefaultMax() items
// and resets nothing. A List must not be copied after first use.
type List[T any] struct {
	// Max bounds the items held; zero or less means DefaultMax(), read
	// at each Put.
	Max int
	// Reset, when non-nil, runs on every item Put is given, before the
	// list keeps or drops it, so a held item keeps no caller's data
	// alive.
	Reset func(T)

	mu    sync.Mutex
	items []T
}

// DefaultMax is 2 × GOMAXPROCS: what dvserve holds at once by default,
// two dispatch workers each scoring a batch on GOMAXPROCS workers.
func DefaultMax() int { return 2 * runtime.GOMAXPROCS(0) }

// Get takes the most recently put item. It reports false, returning
// the zero T, when the list is empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.items)
	if k == 0 {
		return x, false
	}
	x = l.items[k-1]
	clear(l.items[k-1:]) // the list keeps no reference to what it hands out
	l.items = l.items[:k-1]
	return x, true
}

// Put resets x and keeps it if the list holds fewer than its bound.
func (l *List[T]) Put(x T) {
	if l.Reset != nil {
		l.Reset(x)
	}
	limit := l.Max
	if limit <= 0 {
		limit = DefaultMax()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < limit {
		l.items = append(l.items, x)
	}
}
