package main

import (
	"sync"
	"time"
)

// watchdog runs every operation under a deadline, so a hang (the nested
// par deadlock of ROADMAP item 1, or any later one) becomes a failed
// operation and a non-zero exit, never a hung benchmark. The caller arms a
// slot before an operation and disarms it after; a monitor goroutine calls
// expired once, for the first armed slot it finds past its deadline.
type watchdog struct {
	mu      sync.Mutex
	slots   []wdSlot
	expired func(name string, limit time.Duration)
	stop    chan struct{}
	done    chan struct{}
}

type wdSlot struct {
	name     string
	limit    time.Duration
	deadline time.Time // zero = disarmed
}

// wdTick is how often the monitor looks at the slots.
const wdTick = 50 * time.Millisecond

func newWatchdog(slots int, expired func(name string, limit time.Duration)) *watchdog {
	w := &watchdog{
		slots:   make([]wdSlot, slots),
		expired: expired,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.monitor()
	return w
}

func (w *watchdog) monitor() {
	defer close(w.done)
	tick := time.NewTicker(wdTick)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-tick.C:
			w.mu.Lock()
			var hit *wdSlot
			for i := range w.slots {
				if s := &w.slots[i]; !s.deadline.IsZero() && now.After(s.deadline) {
					hit = &wdSlot{name: s.name, limit: s.limit}
					break
				}
			}
			w.mu.Unlock()
			if hit != nil {
				w.expired(hit.name, hit.limit)
				return
			}
		}
	}
}

func (w *watchdog) arm(slot int, name string, limit time.Duration) {
	w.mu.Lock()
	w.slots[slot] = wdSlot{name: name, limit: limit, deadline: time.Now().Add(limit)}
	w.mu.Unlock()
}

func (w *watchdog) disarm(slot int) {
	w.mu.Lock()
	w.slots[slot].deadline = time.Time{}
	w.mu.Unlock()
}

// close stops the monitor and waits for it to exit.
func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// opLimit is the deadline of one operation: 20x its warm-up time, with a
// floor of 10 s.
func opLimit(warm time.Duration) time.Duration {
	if l := 20 * warm; l > wdFloor {
		return l
	}
	return wdFloor
}

const (
	wdFloor = 10 * time.Second
	// warmLimit bounds an operation whose warm-up time is not known yet
	// (the warm-up itself and reference runs).
	warmLimit = 90 * time.Second
)
