package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/obs"
	"eigenpro/internal/serve"
)

// OverloadPoint is one measured cell of the overload-serving study: a
// fixed 2x-saturation closed-loop client population against one server
// configuration, with a fraction of the clients canceling their requests.
type OverloadPoint struct {
	// Clients is the closed-loop client count; saturation is defined as
	// MaxBatch concurrent clients (every device wave full with no queue
	// growth), so Clients = 2*MaxBatch is 2x saturation.
	Clients int
	// MaxBatch is the configured micro-batch bound m_max.
	MaxBatch int
	// CancelPct is the percentage of requests whose client cancels.
	CancelPct int
	// Shed reports whether deadline-aware admission control was on.
	Shed bool
	// Delivered counts responses that reached their caller; Abandoned,
	// Rejected, Expired, and ShedCount are the loss buckets.
	Delivered, Abandoned, Rejected, Expired, ShedCount int64
	// Batches counts dispatched micro-batches; MeanOccupancy is executed
	// rows per batch and OccupancyFrac is MeanOccupancy/MaxBatch — the
	// paper's wave-utilization argument under overload.
	Batches       int64
	MeanOccupancy float64
	OccupancyFrac float64
	// ExecutedRows is the total rows that reached the device (from the
	// occupancy histogram). Canceled requests charging zero device ops
	// means ExecutedRows == Delivered.
	ExecutedRows int64
	// Goodput is delivered responses per wall second.
	Goodput float64
	// P99 is the delivered-response enqueue-to-completion p99.
	P99 time.Duration
	// SimOps is the total simulated device operations charged.
	SimOps float64
}

// runOverloadPoint drives clients closed-loop clients, each issuing
// perClient sequential requests, canceling every cancelEvery-th request
// (0 disables cancellation). Canceled clients cancel their context before
// the call returns, modeling a client that gives up while its request is
// queued: the request still enters the queue as a corpse the batcher must
// reap without diluting occupancy or charging device time.
func runOverloadPoint(m *core.Model, mmax, clients, perClient, cancelEvery int, shed bool, timeout time.Duration) (OverloadPoint, error) {
	events := obs.NewEventLog(0)
	events.SetSampleEvery(-1) // record no ok request
	s := serve.New(serve.Config{
		MaxBatch: mmax,
		// One worker models one device, as in the serving study.
		Workers:    1,
		MaxLatency: time.Millisecond,
		QueueDepth: 4 * clients,
		Timeout:    timeout,
		Shed:       shed,
		Events:     events,
	})
	defer s.Close()
	if err := s.Register("m", m); err != nil {
		return OverloadPoint{}, err
	}

	queries := data.MNISTLike(256, 52).X
	start := time.Now()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seq := c*perClient + i
				ctx := context.Background()
				canceled := cancelEvery > 0 && seq%cancelEvery == 0
				if canceled {
					cctx, cancel := context.WithCancel(ctx)
					cancel()
					ctx = cctx
				}
				_, err := s.Predict(ctx, "m", queries.RowView(seq%queries.Rows))
				switch {
				case err == nil:
				case canceled && errors.Is(err, context.Canceled):
					// The modeled client gave up; the server must reap it.
				case errors.Is(err, serve.ErrShed),
					errors.Is(err, serve.ErrOverloaded),
					errors.Is(err, serve.ErrDeadlineExceeded):
					// Overload losses are the subject of the study.
				default:
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return OverloadPoint{}, err
		}
	}

	st := s.Stats()
	p := OverloadPoint{
		Clients:       clients,
		MaxBatch:      mmax,
		Shed:          shed,
		Delivered:     st.Requests,
		Abandoned:     st.Abandoned,
		Rejected:      st.Rejected,
		Expired:       st.Expired,
		ShedCount:     st.Shed,
		Batches:       st.Batches,
		MeanOccupancy: st.MeanOccupancy,
		ExecutedRows:  int64(st.MeanOccupancy*float64(st.Batches) + 0.5),
		P99:           st.P99,
		SimOps:        st.SimOps,
	}
	if cancelEvery > 0 {
		p.CancelPct = 100 / cancelEvery
	}
	if mmax > 0 {
		p.OccupancyFrac = st.MeanOccupancy / float64(mmax)
	}
	if sec := wall.Seconds(); sec > 0 {
		p.Goodput = float64(st.Requests) / sec
	}
	return p, nil
}

// OverloadStudy measures batch occupancy and goodput at 2x saturation:
// a clean overload baseline, the same overload with 25% client
// cancellation, and the canceled overload with deadline-aware shedding
// under a tight request deadline.
func OverloadStudy(scale Scale) ([]OverloadPoint, error) {
	points, _, err := overloadStudy(scale)
	return points, err
}

func overloadStudy(scale Scale) ([]OverloadPoint, *core.Model, error) {
	const mmax = 32
	centers := scale.pick(300, 800, 2000)
	perClient := scale.pick(24, 48, 96)
	clients := 2 * mmax // 2x saturation: twice the concurrency one wave absorbs
	m := servingModel(centers)
	var out []OverloadPoint
	for _, cell := range []struct {
		cancelEvery int
		shed        bool
		timeout     time.Duration
	}{
		{0, false, -1},
		{4, false, -1},
		{4, true, 25 * time.Millisecond},
	} {
		p, err := runOverloadPoint(m, mmax, clients, perClient, cell.cancelEvery, cell.shed, cell.timeout)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, p)
	}
	return out, m, nil
}

// OverloadServing renders OverloadStudy as a report: how occupancy,
// goodput, and the loss buckets hold up at 2x saturation with client
// cancellation, and what deadline-aware shedding changes.
func OverloadServing(scale Scale) (*Report, error) {
	points, mdl, err := overloadStudy(scale)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "overload",
		Title: "overload serving: occupancy and goodput at 2x saturation with client cancellation",
		Header: []string{"clients", "cancel", "shed", "delivered", "abandoned", "shed reqs",
			"expired", "mean occ", "occ/m_max", "goodput req/s", "p99"},
	}
	for _, p := range points {
		shedMode := "off"
		if p.Shed {
			shedMode = "on"
		}
		rep.AddRow(fmt.Sprint(p.Clients), fmt.Sprintf("%d%%", p.CancelPct), shedMode,
			fmt.Sprint(p.Delivered), fmt.Sprint(p.Abandoned), fmt.Sprint(p.ShedCount),
			fmt.Sprint(p.Expired), fmt.Sprintf("%.1f", p.MeanOccupancy),
			fmt.Sprintf("%.2f", p.OccupancyFrac), fmt.Sprintf("%.0f", p.Goodput),
			fmtDur(p.P99))
	}
	rep.AddNote("model: %d MNIST-like centers; m_max=%d, 1 worker; saturation = m_max concurrent clients, so %d clients is 2x",
		mdl.X.Rows, points[0].MaxBatch, points[0].Clients)
	rep.AddNote("canceled requests enter the queue and are reaped by the batcher: they charge zero device ops " +
		"and the greedy drain backfills their batch slots, so occupancy holds near m_max")
	return rep, nil
}
