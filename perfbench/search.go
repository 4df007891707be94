package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// The sustained-rate search offers the workload's stream at rising
// rates, each to a fresh pipeline for searchStep, and bisects between
// the highest rate that met every condition and the lowest that did
// not until they are within searchResolution of each other. A rate
// that fails is offered again, up to searchTries times in all, and
// counts as sustained if any try met every condition: host contention
// only ever lowers the rate a pipeline sustains, so a single failed
// step says as much about the host as about the program.
const (
	searchStep       = 2 * time.Second
	searchTries      = 2
	searchStart      = 32000.0
	searchGrow       = 1.4
	searchMinRate    = 1000.0
	searchMaxRate    = 64000.0 // above one shard's 256-per-5 ms poll cap
	searchResolution = 1.05
)

// sustained returns the highest offered rate at which no report
// failed, p99 latency stayed within latencyLimit, and the backlog was
// gone within drainLimit of the stream's end.
func (b *bench) sustained() (float64, error) {
	lo, hi := 0.0, 0.0
	for r := searchStart; ; {
		ok, err := b.sustains(r)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = r
			if hi > 0 || r >= searchMaxRate {
				break
			}
			r = math.Min(r*searchGrow, searchMaxRate)
		} else {
			hi = r
			if lo > 0 || r <= searchMinRate {
				break
			}
			r /= searchGrow
		}
	}
	for lo > 0 && hi > 0 && hi/lo > searchResolution {
		mid := math.Sqrt(lo * hi)
		ok, err := b.sustains(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// sustains runs the search step at rate until one try meets every
// condition or searchTries have failed.
func (b *bench) sustains(rate float64) (bool, error) {
	for try := 0; try < searchTries; try++ {
		ok, err := b.try(rate)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// try offers the stream at rate to a fresh pipeline for searchStep.
func (b *bench) try(rate float64) (bool, error) {
	dir, err := b.ckptDir("search")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	n := int(rate * searchStep.Seconds())
	o := runOpts{rate: rate, n: n, windowLen: n, checkpoint: b.w.checkpoint}
	res, err := newRun(o)
	if err != nil {
		return false, err
	}
	defer res.release() // after Stop, below: no decision callback runs later
	live, err := b.newLive(b.config(dir, obsDefault))
	if err != nil {
		return false, err
	}
	defer live.Stop()
	start, err := drive(live, b.s, o, res)
	if err != nil {
		return false, err
	}
	failed := res.offered - len(res.decisions)
	var p99 float64
	drain := time.Duration(math.MaxInt64)
	if res.settled {
		drain = res.backlogGone - res.streamEnd
	}
	if !res.aborted && res.settled {
		lat, err := latencies(res, b.s, start, o)
		if err != nil {
			return false, err
		}
		p99 = percentile(lat[0], 0.99).value
	}
	ok := !res.aborted && res.settled && failed == 0 &&
		p99 <= ms(latencyLimit) && drain <= drainLimit
	verdict := "fails"
	if ok {
		verdict = "sustained"
	}
	b.rep.note("search %7.0f reports/s: %-9s (offered %d, failed %d, p99 %.1f ms, drained %v, aborted %v)",
		rate, verdict, res.offered, failed, p99, drainString(res, drain), res.aborted)
	return ok, nil
}

func drainString(res *runResult, d time.Duration) string {
	if !res.settled {
		return "never"
	}
	return fmt.Sprintf("in %.0f ms", ms(d))
}
