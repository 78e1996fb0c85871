package core

import (
	"eigenpro/internal/obs"
)

// Trainer telemetry series names; the per-run labels (e.g. job="job-3")
// apply only to the gauges, so the counter and histogram series stay
// bounded while per-run progress remains addressable.
const (
	MetricTrainEpochsTotal       = "eigenpro_train_epochs_total"
	MetricTrainItersTotal        = "eigenpro_train_iters_total"
	MetricTrainEpochSeconds      = "eigenpro_train_epoch_duration_seconds"
	MetricTrainDeviceBusyTotal   = "eigenpro_train_device_busy_seconds_total"
	MetricTrainEpoch             = "eigenpro_train_epoch"
	MetricTrainMSE               = "eigenpro_train_mse"
	MetricTrainValError          = "eigenpro_train_val_error"
	MetricTrainDeviceUtilization = "eigenpro_train_device_utilization"
)

// trainEpochBuckets spans 1ms .. ~17min of wall time per epoch.
var trainEpochBuckets = obs.ExpBuckets(1e-3, 2, 20)

// ObserveTraining returns a Config.OnEpoch hook that records per-epoch
// training telemetry into reg: epoch/iteration counters and an
// epoch-duration histogram (unlabeled, shared across runs), plus labeled
// gauges for the run's current epoch, train MSE, validation error, and
// simulated-device utilization (device-busy seconds per wall second,
// from the device.Clock totals EpochStats carries).
//
// base is the trainer's progress before the first observed epoch — zero
// for a fresh run, or the resumed trainer's cumulative Wall/SimTime/Iters
// so a checkpoint-resume does not re-count (or mis-size) the first delta.
// The hook is not safe for concurrent use, matching OnEpoch's contract
// (it runs synchronously on the training goroutine).
func ObserveTraining(reg *obs.Registry, base EpochStats, labels ...obs.Label) func(EpochStats) {
	if reg == nil {
		return func(EpochStats) {}
	}
	epochs := reg.Counter(MetricTrainEpochsTotal, "Completed training epochs across all runs.")
	iters := reg.Counter(MetricTrainItersTotal, "Completed optimizer iterations across all runs.")
	dur := reg.Histogram(MetricTrainEpochSeconds, "Wall time per training epoch.", trainEpochBuckets)
	busy := reg.Counter(MetricTrainDeviceBusyTotal, "Simulated device time charged by training.")
	epochG := reg.Gauge(MetricTrainEpoch, "Current epoch of the run.", labels...)
	mseG := reg.Gauge(MetricTrainMSE, "Last completed epoch's running train MSE.", labels...)
	utilG := reg.Gauge(MetricTrainDeviceUtilization,
		"Simulated-device busy seconds per wall second of training.", labels...)
	var valG *obs.Gauge // registered on first real validation value

	last := base
	return func(st EpochStats) {
		epochs.Inc()
		if d := st.Iters - last.Iters; d > 0 {
			iters.Add(float64(d))
		}
		dur.Observe((st.Wall - last.Wall).Seconds())
		busy.Add((st.SimTime - last.SimTime).Seconds())
		epochG.Set(float64(st.Epoch))
		mseG.Set(st.TrainMSE)
		if w := st.Wall.Seconds(); w > 0 {
			utilG.Set(st.SimTime.Seconds() / w)
		}
		if st.ValError == st.ValError { // not NaN
			if valG == nil {
				valG = reg.Gauge(MetricTrainValError, "Last epoch's validation classification error.", labels...)
			}
			valG.Set(st.ValError)
		}
		last = st
	}
}

// LogTraining returns a Config.OnEpoch hook that emits one wide
// obs.Event per completed epoch into log: the job name, the 1-based
// epoch, its ending train MSE, and the epoch's wall-clock and
// simulated-device-busy durations as deltas. base plays the same role as
// in ObserveTraining — a resumed trainer's cumulative totals, so the
// first logged epoch reports only its own work, and traceID (may be "")
// files each event under the job's trace at /debug/traces.
func LogTraining(log *obs.EventLog, job, traceID string, base EpochStats) func(EpochStats) {
	if log == nil {
		return func(EpochStats) {}
	}
	last := base
	return func(st EpochStats) {
		ev := obs.Event{
			Level:      obs.LevelInfo,
			Kind:       obs.KindTrainEpoch,
			Job:        job,
			TraceID:    traceID,
			Epoch:      st.Epoch,
			MSE:        st.TrainMSE,
			Wall:       st.Wall - last.Wall,
			DeviceBusy: st.SimTime - last.SimTime,
		}
		if st.ValError == st.ValError { // not NaN (no validation set)
			ev.ValError = st.ValError
		}
		log.Emit(ev)
		last = st
	}
}

// ObserveTrainingBase derives the ObserveTraining base from a trainer's
// partial result, so a resumed run's telemetry continues from the
// checkpointed totals instead of re-counting them.
func ObserveTrainingBase(res *Result) EpochStats {
	return EpochStats{
		Epoch:   res.Epochs,
		SimTime: res.SimTime,
		Wall:    res.WallTime,
		Iters:   res.Iters,
	}
}

// UnobserveTraining removes the labeled per-run gauge series a
// ObserveTraining hook registered — the eviction path when the run's
// owner (e.g. a deleted training job) goes away.
func UnobserveTraining(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	for _, name := range []string{MetricTrainEpoch, MetricTrainMSE, MetricTrainValError, MetricTrainDeviceUtilization} {
		reg.Remove(name, labels...)
	}
}

// ChainEpochHooks composes OnEpoch hooks into one, skipping nils — the
// way a caller layers its own progress reporting on top of an
// ObserveTraining hook.
func ChainEpochHooks(hooks ...func(EpochStats)) func(EpochStats) {
	live := make([]func(EpochStats), 0, len(hooks))
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(st EpochStats) {
		for _, h := range live {
			h(st)
		}
	}
}
