package ports

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDispatcherRunsWork(t *testing.T) {
	d := NewDispatcher(4, 16)
	defer d.Shutdown()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		d.Submit(func() { n.Add(1); wg.Done() })
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Errorf("ran %d items, want 100", n.Load())
	}
}

func TestDispatcherShutdownIdempotent(t *testing.T) {
	d := NewDispatcher(1, 1)
	d.Shutdown()
	d.Shutdown() // must not panic
}

func TestDispatcherSubmitAfterShutdownPanics(t *testing.T) {
	d := NewDispatcher(1, 1)
	d.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("Submit after Shutdown did not panic")
		}
	}()
	d.Submit(func() {})
}

func TestNewDispatcherPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDispatcher(0,..) did not panic")
		}
	}()
	NewDispatcher(0, 1)
}

// TestPortBuffersUntilReceiverRegistered runs on a 1-thread dispatcher:
// register submits the buffered messages in order, but only a single
// worker executes them in submission order, which is the order asserted.
func TestPortBuffersUntilReceiverRegistered(t *testing.T) {
	d := NewDispatcher(1, 16)
	defer d.Shutdown()
	p := NewPort[int](d)
	p.Post(1)
	p.Post(2)
	if p.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", p.Pending())
	}
	got := make(chan int, 2)
	Receive(p, true, func(v int) { got <- v })
	if a, b := <-got, <-got; a != 1 || b != 2 {
		t.Errorf("delivery order = %d,%d want 1,2", a, b)
	}
	if p.Pending() != 0 {
		t.Errorf("pending after drain = %d", p.Pending())
	}
}

func TestSingleItemReceiverIsOneShot(t *testing.T) {
	d := NewDispatcher(2, 16)
	defer d.Shutdown()
	p := NewPort[int](d)
	var count atomic.Int64
	fired := make(chan struct{}, 1)
	Receive(p, false, func(int) { count.Add(1); fired <- struct{}{} })
	p.Post(1)
	<-fired
	p.Post(2)
	time.Sleep(20 * time.Millisecond)
	if count.Load() != 1 {
		t.Errorf("one-shot receiver fired %d times", count.Load())
	}
	if p.Pending() != 1 {
		t.Errorf("second message should buffer, pending=%d", p.Pending())
	}
}

func TestMultipleItemReceive(t *testing.T) {
	d := NewDispatcher(4, 64)
	defer d.Shutdown()
	okPort := NewPort[int](d)
	errPort := NewPort[error](d)
	done := make(chan struct{})
	MultipleItemReceive(okPort, errPort, 5, func(oks []int, errs []error) {
		if len(oks)+len(errs) != 5 {
			t.Errorf("batch size %d+%d, want 5", len(oks), len(errs))
		}
		close(done)
	})
	for i := 0; i < 4; i++ {
		okPort.Post(i)
	}
	errPort.Post(errTest("boom"))
	<-done
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestJoinFiresOnBothMessages(t *testing.T) {
	d := NewDispatcher(2, 16)
	defer d.Shutdown()
	pa := NewPort[int](d)
	pb := NewPort[string](d)
	got := make(chan string, 1)
	Join(pa, pb, func(a int, b string) { got <- b })
	pa.Post(1)
	select {
	case <-got:
		t.Fatal("join fired with only one message")
	case <-time.After(10 * time.Millisecond):
	}
	pb.Post("hello")
	if v := <-got; v != "hello" {
		t.Errorf("join payload = %q", v)
	}
}

func TestChoiceOnlyOneBranchFires(t *testing.T) {
	d := NewDispatcher(4, 16)
	defer d.Shutdown()
	pa := NewPort[int](d)
	pb := NewPort[int](d)
	var aFired, bFired atomic.Int64
	fired := make(chan struct{}, 2)
	Choice(pa,
		func(int) { aFired.Add(1); fired <- struct{}{} },
		pb,
		func(int) { bFired.Add(1); fired <- struct{}{} })
	pa.Post(1)
	pb.Post(2)
	<-fired
	time.Sleep(20 * time.Millisecond)
	if aFired.Load()+bFired.Load() != 1 {
		t.Errorf("choice fired %d branches, want exactly 1", aFired.Load()+bFired.Load())
	}
	// The losing message must remain available for future receivers.
	if pa.Pending()+pb.Pending() != 1 {
		t.Errorf("losing message lost: pending a=%d b=%d", pa.Pending(), pb.Pending())
	}
}

func TestInterleaveExclusiveBlocksConcurrent(t *testing.T) {
	d := NewDispatcher(8, 64)
	defer d.Shutdown()
	il := NewInterleave()
	p := NewPort[int](d)
	var inExclusive atomic.Bool
	var violation atomic.Bool
	var wg sync.WaitGroup

	conc := Concurrent(il, func(int) {
		if inExclusive.Load() {
			violation.Store(true)
		}
		wg.Done()
	})
	excl := Exclusive(il, func(int) {
		inExclusive.Store(true)
		time.Sleep(5 * time.Millisecond)
		inExclusive.Store(false)
		wg.Done()
	})
	Receive(p, true, func(v int) {
		if v == 0 {
			excl(v)
		} else {
			conc(v)
		}
	})
	wg.Add(21)
	p.Post(0)
	for i := 1; i <= 20; i++ {
		p.Post(i)
	}
	wg.Wait()
	if violation.Load() {
		t.Error("concurrent handler ran while exclusive handler was active")
	}
}

func TestInterleaveTeardownRunsOnceAndDisables(t *testing.T) {
	il := NewInterleave()
	var runs, after atomic.Int64
	td := Teardown(il, func(int) { runs.Add(1) })
	td(1)
	td(2)
	if runs.Load() != 1 {
		t.Errorf("teardown ran %d times, want 1", runs.Load())
	}
	c := Concurrent(il, func(int) { after.Add(1) })
	c(3)
	if after.Load() != 0 {
		t.Error("concurrent handler ran after teardown")
	}
}

func TestGatherScatterRound(t *testing.T) {
	d := NewDispatcher(4, 256)
	defer d.Shutdown()
	type tick struct {
		n   int
		ack *Port[int]
	}
	const agents = 50
	agentPorts := make([]*Port[tick], agents)
	for i := range agentPorts {
		i := i
		agentPorts[i] = NewPort[tick](d)
		Receive(agentPorts[i], true, func(m tick) { m.ack.Post(i) })
	}
	for round := 0; round < 3; round++ {
		g := NewGather[int](d, agents)
		for _, p := range agentPorts {
			p.Post(tick{n: round, ack: g.Port()})
		}
		acks := g.Wait()
		if len(acks) != agents {
			t.Fatalf("round %d gathered %d acks, want %d", round, len(acks), agents)
		}
	}
}

// TestGatherReuseWithReset drives one gatherer through many rounds of
// varying width — the allocation-free per-tick pattern of the
// Scatter-Gather engine's sweep.
func TestGatherReuseWithReset(t *testing.T) {
	d := NewDispatcher(4, 256)
	defer d.Shutdown()
	type tick struct {
		ack *Port[int]
	}
	const agents = 40
	agentPorts := make([]*Port[tick], agents)
	for i := range agentPorts {
		i := i
		agentPorts[i] = NewPort[tick](d)
		Receive(agentPorts[i], true, func(m tick) { m.ack.Post(i) })
	}
	g := NewGather[int](d, agents)
	for round := 0; round < 5; round++ {
		n := agents - round*7 // shrinking active subsets
		if round > 0 {
			g.Reset(n)
		}
		for _, p := range agentPorts[:n] {
			p.Post(tick{ack: g.Port()})
		}
		acks := g.Wait()
		if len(acks) != n {
			t.Fatalf("round %d gathered %d acks, want %d", round, len(acks), n)
		}
	}
}
