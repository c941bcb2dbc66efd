// Package lockpath is golden-file input: swapMu is the body's first
// lock and its Unlock is deferred by the very next statement.
package lockpath

import "sync"

// DB mirrors the engine's lock layout: swapMu serializes swaps and is
// the outermost lock; mu and rw guard incidental state.
type DB struct {
	mu     sync.Mutex
	swapMu sync.Mutex
	rw     sync.RWMutex
	n      int
}

// swapInnermost: acquiring swapMu while another lock is held inverts
// the canonical order.
func (d *DB) swapInnermost() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.swapMu.Lock() // want `swapMu acquired after d.mu was locked earlier in this body`
	defer d.swapMu.Unlock()
}

// swapOutermost: swapMu first, then inner locks — the canonical order.
func (d *DB) swapOutermost() {
	d.swapMu.Lock()
	defer d.swapMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
}

// noDeferredUnlock: an explicit Unlock leaves the lock held on any exit
// before it.
func (d *DB) noDeferredUnlock() {
	d.swapMu.Lock() // want `d.swapMu.Lock\(\) must be followed directly by .defer d.swapMu.Unlock\(\)`
	d.n++
	d.swapMu.Unlock()
}

// deferNotDirect: a statement between the Lock and its deferred Unlock
// can exit with the lock held.
func (d *DB) deferNotDirect() {
	d.swapMu.Lock() // want `must be followed directly by`
	d.n++
	defer d.swapMu.Unlock()
}

// earlierLockReleased: another lock earlier in the body is flagged even
// when it was released before swapMu is taken.
func (d *DB) earlierLockReleased() {
	d.rw.RLock()
	n := d.n
	d.rw.RUnlock()
	if n == 0 {
		d.swapMu.Lock() // want `swapMu acquired after d.rw was locked earlier in this body`
		defer d.swapMu.Unlock()
		d.n = 1
	}
}

// closureOwnBody: a lock inside a closure belongs to the closure's body,
// not to the enclosing one.
func (d *DB) closureOwnBody() func() {
	read := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.n
	}
	d.swapMu.Lock()
	defer d.swapMu.Unlock()
	d.n = read()
	return func() {
		d.swapMu.Lock()
		defer d.swapMu.Unlock()
		d.n++
	}
}
