package server

import "testing"

// TestAbandonedFlightIsRetired: once a leader with no waiters has been
// canceled, its flight must be gone from the group — the engine takes a
// while to unwind before finish runs, and a request joining in that
// window would otherwise wait on a doomed run and inherit a cancellation
// that was never its own. The next join leads a fresh flight, and the
// old leader's late finish must not retire its successor's entry.
func TestAbandonedFlightIsRetired(t *testing.T) {
	var g flightGroup
	old, leader := g.join("k")
	if !leader {
		t.Fatal("first join is not the leader")
	}
	canceled := false
	g.cancelIfUnwaited("k", old, func() { canceled = true })
	if !canceled {
		t.Fatal("an unwaited flight was not canceled")
	}

	next, leader := g.join("k")
	if !leader || next == old {
		t.Fatalf("join after the abandonment: leader = %v, same flight = %v; want a fresh flight to lead", leader, next == old)
	}
	if n := old.waiters.Load(); n != 0 {
		t.Errorf("abandoned flight gained %d waiters", n)
	}

	g.finish("k", old) // the abandoned engine run has unwound
	if !g.pending("k") {
		t.Fatal("the old leader's finish retired the new leader's flight")
	}
	if fl, leader := g.join("k"); leader || fl != next {
		t.Error("a join during the new flight did not coalesce onto it")
	}

	// A waited flight survives its leader's disconnect and stays joinable.
	canceled = false
	g.cancelIfUnwaited("k", next, func() { canceled = true })
	if canceled || !g.pending("k") {
		t.Errorf("a waited flight was abandoned: canceled = %v, pending = %v", canceled, g.pending("k"))
	}
	g.finish("k", next)
	if g.pending("k") {
		t.Error("finish left its own flight resident")
	}
}
