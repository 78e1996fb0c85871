package bench

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Arrival is one request of an open-loop schedule: when it is due, counted
// from the start of its phase, and which input row it carries.
type Arrival struct {
	At  time.Duration
	Row int
}

// Poisson returns a seeded open-loop schedule of independent arrivals at
// rate per second over dur: exponential gaps, each carrying a row drawn
// uniformly from [0, rows). The same arguments always give the same
// schedule.
func Poisson(seed int64, rate float64, dur time.Duration, rows int) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []Arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, Arrival{At: at, Row: rng.Intn(rows)})
	}
}

// Outcome is what the open-loop generator observed for one arrival.
type Outcome struct {
	// Due is when the schedule said to send; Sent is when the request's
	// goroutine actually started; Done is when the call returned.
	Due, Sent, Done time.Time
	// Err is the call's error, including a wrong output.
	Err error
}

// Latency is the request's time from when it was due until it returned,
// which charges a stall to every request scheduled behind it.
func (o Outcome) Latency() time.Duration { return o.Done.Sub(o.Due) }

// Lag is how late the generator started the request.
func (o Outcome) Lag() time.Duration { return o.Sent.Sub(o.Due) }

// RunOpenLoop sends every arrival at start+At, each on its own goroutine
// so that a slow reply never delays a later send, and returns once every
// sent call has returned. Closing stop (nil: never) ends sending early; the
// result then covers only the arrivals sent. The schedule bounds the
// number of goroutines; the callee bounds connections (an HTTP transport
// with at most nproc of them). call must be safe for concurrent use.
func RunOpenLoop(start time.Time, sched []Arrival, stop <-chan struct{}, call func(i int, a Arrival) error) []Outcome {
	out := make([]Outcome, len(sched))
	var wg sync.WaitGroup
	sent := len(sched)
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-stop:
				timer.Stop()
			}
		}
		if stopped(stop) {
			sent = i
			break
		}
		wg.Add(1)
		go func(i int, a Arrival, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			err := call(i, a)
			out[i] = Outcome{Due: due, Sent: sent, Done: time.Now(), Err: err}
		}(i, a, due)
	}
	wg.Wait()
	return out[:sent]
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// LatenciesMs returns each outcome's latency in milliseconds, with +Inf for
// a failed request so that it counts as missing any latency limit.
func LatenciesMs(outs []Outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			ms[i] = math.Inf(1)
			continue
		}
		ms[i] = float64(o.Latency()) / float64(time.Millisecond)
	}
	return ms
}

// LagsMs returns each outcome's generator lag in milliseconds.
func LagsMs(outs []Outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = float64(o.Lag()) / float64(time.Millisecond)
	}
	return ms
}
