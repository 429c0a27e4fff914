package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/obs"
)

// coordinator is what the loopback workloads need of a campaign or fleet
// coordinator beyond its Wait, which differs in what it returns.
type coordinator interface {
	http.Handler
	Close() error
}

// loopback describes one loopback job: how to build its coordinator, its
// wire paths, how to run one worker, and how to wait for the coordinator.
type loopback struct {
	newCoord  func() (coordinator, error)
	paths     wirePaths
	workers   int
	journaled bool // give each worker a journal (traced runs)
	runWorker func(ctx context.Context, addr, id string, j *obs.Journal) error
	wait      func(ctx context.Context) error
}

// loopbackRun is what a loopback job measured.
type loopbackRun struct {
	wall time.Duration
	tap  tapStats
	runs []workerRuns
}

// workerRuns is one worker's journaled engine runs.
type workerRuns struct {
	worker string
	events []obs.Event
}

// run serves the coordinator through a wire tap on a loopback listener,
// runs the workers against it and waits for the coordinator. The clock (ph's,
// when ph is non-nil) runs from coordinator construction to the return of
// wait. The workers are then cancelled: after the coordinator finishes they
// would keep retrying it for up to campaign.DefaultDialBudget.
func (lb loopback) run(ctx context.Context, ph *phase, tr *tracer, name string) (*loopbackRun, error) {
	var lp lap
	if ph != nil {
		lp = ph.clk.start()
	}
	t0 := time.Now()
	coord, err := lb.newCoord()
	if err != nil {
		return nil, err
	}
	var id uint64
	if tr != nil {
		id = tr.newID()
	}
	tap := newWireTap(coord, lb.paths, tr, id)
	srv, err := campaign.ListenAndServe("127.0.0.1:0", tap)
	if err != nil {
		coord.Close()
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	sinks := make([]*runSink, lb.workers)
	journals := make([]*obs.Journal, lb.workers)
	errs := make([]error, lb.workers)
	var wg sync.WaitGroup
	for i := range sinks {
		if lb.journaled {
			sinks[i] = &runSink{}
			journals[i] = obs.NewJournal(sinks[i])
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = lb.runWorker(wctx, srv.Addr(), fmt.Sprintf("w%d", i), journals[i])
		}(i)
	}
	werr := lb.wait(ctx)
	var wall time.Duration
	if ph != nil {
		wall = lp.stop()
	} else {
		wall = time.Since(t0)
	}
	end := time.Now()
	cancel()
	wg.Wait()
	srv.Close()
	cerr := coord.Close()
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("worker: %w", err)
		}
	}
	if tr != nil {
		tr.record(span{ID: id, Name: name}, t0, end)
	}
	r := &loopbackRun{wall: wall, tap: tap.finish(end)}
	for i, j := range journals {
		if j == nil {
			continue
		}
		if err := j.Flush(); err != nil {
			return nil, err
		}
		r.runs = append(r.runs, workerRuns{worker: fmt.Sprintf("w%d", i), events: sinks[i].take()})
	}
	return r, nil
}
