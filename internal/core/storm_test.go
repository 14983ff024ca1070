package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fargo/internal/ids"
)

// counterAnchor is a complet whose state must survive any sequence of moves.
// Invocations on one complet may run concurrently (the paper's
// thread-per-invocation model, §5), so the anchor synchronizes its own state;
// the unexported mutex is not serialized and arrives zero-valued (unlocked)
// after each move.
type counterAnchor struct {
	mu sync.Mutex
	N  int
}

func (c *counterAnchor) Add(d int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.N += d
	return c.N
}

func (c *counterAnchor) Value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.N
}

// TestLayoutStormSequential drives a deterministic random workload of moves
// and invocations across a cluster and asserts the model invariants:
// every invocation lands exactly once on the live instance, state follows
// the complet wherever it goes, and location queries agree with reality.
func TestLayoutStormSequential(t *testing.T) {
	const (
		nCores    = 5
		nComplets = 8
		nOps      = 400
	)
	names := make([]string, nCores)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	cl := newCluster(t, names...)
	for _, c := range cl.cores {
		if err := c.Registry().Register("StormCounter", (*counterAnchor)(nil)); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(2026))
	type tracked struct {
		id       ids.CompletID
		expected int
	}
	complets := make([]*tracked, nComplets)
	for i := range complets {
		birth := cl.core(names[rng.Intn(nCores)])
		r, err := birth.NewComplet("StormCounter")
		if err != nil {
			t.Fatal(err)
		}
		complets[i] = &tracked{id: r.Target()}
	}

	for op := 0; op < nOps; op++ {
		c := complets[rng.Intn(nComplets)]
		actor := cl.core(names[rng.Intn(nCores)])
		switch rng.Intn(3) {
		case 0: // move to a random core
			dest := ids.CoreID(names[rng.Intn(nCores)])
			if err := actor.MoveByID(c.id, dest); err != nil {
				t.Fatalf("op %d: move %s to %s: %v", op, c.id, dest, err)
			}
		default: // invoke from a random core through a stale-hinted ref
			hint := ids.CoreID(names[rng.Intn(nCores)])
			r := actor.NewRefTo(c.id, "StormCounter", hint)
			res, err := r.Invoke("Add", 1)
			if err != nil {
				t.Fatalf("op %d: invoke %s from %s: %v", op, c.id, actor.ID(), err)
			}
			c.expected++
			if got := res[0].(int); got != c.expected {
				t.Fatalf("op %d: counter %s = %d, want %d (lost or duplicated update)",
					op, c.id, got, c.expected)
			}
		}
	}

	// Final audit: values, locations, and repository consistency.
	total := 0
	for _, c := range complets {
		observer := cl.core(names[0])
		r := observer.NewRefTo(c.id, "StormCounter", ids.CoreID(names[0]))
		res, err := r.Invoke("Value")
		if err != nil {
			t.Fatalf("audit %s: %v", c.id, err)
		}
		if got := res[0].(int); got != c.expected {
			t.Fatalf("audit %s: value %d, want %d", c.id, got, c.expected)
		}
		total += c.expected

		loc, err := observer.LocateComplet(c.id)
		if err != nil {
			t.Fatalf("audit locate %s: %v", c.id, err)
		}
		if _, hosted := cl.core(loc.String()).lookup(c.id); !hosted {
			t.Fatalf("audit %s: reported at %s but not hosted there", c.id, loc)
		}
	}
	hosted := 0
	for _, c := range cl.cores {
		hosted += c.CompletCount()
	}
	if hosted != nComplets {
		t.Fatalf("repositories hold %d complets, want %d (lost or duplicated complets)", hosted, nComplets)
	}
	if total == 0 {
		t.Fatal("workload made no invocations — test is vacuous")
	}
}

// TestLayoutStormConcurrent runs movers and invokers in parallel against one
// hot complet and checks that no update is lost and the final location is
// coherent.
func TestLayoutStormConcurrent(t *testing.T) {
	names := []string{"p0", "p1", "p2"}
	cl := newCluster(t, names...)
	for _, c := range cl.cores {
		if err := c.Registry().Register("StormCounter", (*counterAnchor)(nil)); err != nil {
			t.Fatal(err)
		}
	}
	origin := cl.core("p0")
	r, err := origin.NewComplet("StormCounter")
	if err != nil {
		t.Fatal(err)
	}
	id := r.Target()

	const (
		invokers  = 4
		perWorker = 30
		moves     = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, invokers+1)
	for w := 0; w < invokers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			actor := cl.core(names[w%len(names)])
			ref := actor.NewRefTo(id, "StormCounter", "p0")
			for i := 0; i < perWorker; i++ {
				if _, err := ref.Invoke("Add", 1); err != nil {
					errs <- fmt.Errorf("invoker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < moves; i++ {
			actor := cl.core(names[rng.Intn(len(names))])
			dest := ids.CoreID(names[rng.Intn(len(names))])
			if err := actor.MoveByID(id, dest); err != nil {
				errs <- fmt.Errorf("mover: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res, err := origin.NewRefTo(id, "StormCounter", "p0").Invoke("Value")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int); got != invokers*perWorker {
		t.Fatalf("final value %d, want %d (updates lost during movement)", got, invokers*perWorker)
	}
}

// blockedOnMoveLock reports whether some goroutine is parked on a complet's
// movement lock inside invokeLocalFrom (a reader waiting behind a move's W).
func blockedOnMoveLock() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "runtime_SemacquireRWMutexR") && strings.Contains(g, "invokeLocalFrom") {
			return true
		}
	}
	return false
}

// TestInvokeHeldDuringMoveCommitRetriesOnce pins the invariant the
// concurrent storm only samples: an invocation that is blocked on the
// complet's movement lock while the move commits wakes to a tracker that
// already forwards to the destination. It pays exactly one stale-local
// retry and never spins against the hop budget (DESIGN.md §7).
func TestInvokeHeldDuringMoveCommitRetriesOnce(t *testing.T) {
	cl := newCluster(t, "a", "b")
	for _, c := range cl.cores {
		if err := c.Registry().Register("StormCounter", (*counterAnchor)(nil)); err != nil {
			t.Fatal(err)
		}
	}
	src := cl.core("a")
	r, err := src.NewComplet("StormCounter")
	if err != nil {
		t.Fatal(err)
	}
	id := r.Target()
	staleBefore := src.met.staleLocal.Value()

	type result struct {
		res []any
		err error
	}
	done := make(chan result, 1)
	held := false
	src.SetMoveStepHook(func(step MoveStep, root ids.CompletID) bool {
		if step != StepAfterCommit || root != id {
			return false
		}
		// COMMIT is journaled and the move still holds W: start an
		// invocation and wait until it is parked on the movement lock.
		// Holding the per-method meter lock until that invocation returns
		// stalls the move's post-unlock tail (the meter drops), so the
		// woken invocation sees only what the move published before it
		// released W.
		src.mon.methodsMu.Lock()
		go func() {
			defer src.mon.methodsMu.Unlock()
			res, err := src.NewRefTo(id, "StormCounter", "a").Invoke("Add", 1)
			done <- result{res, err}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for !blockedOnMoveLock() {
			if time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
		held = true
		return false
	})
	if err := src.MoveByID(id, "b"); err != nil {
		t.Fatal(err)
	}
	src.SetMoveStepHook(nil)
	if !held {
		t.Fatal("invocation never blocked on the movement lock during the commit")
	}

	got := <-done
	if errors.Is(got.err, ErrTooManyHops) {
		t.Fatalf("invocation racing the move spun on the hop budget: %v", got.err)
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if n := got.res[0].(int); n != 1 {
		t.Fatalf("counter = %d after one Add, want 1", n)
	}
	if retries := src.met.staleLocal.Value() - staleBefore; retries != 1 {
		t.Fatalf("stale-local retries = %d, want exactly 1 (one per raced move)", retries)
	}
	if _, ok := cl.core("b").lookup(id); !ok {
		t.Fatalf("complet %s not hosted at the destination", id)
	}
}
