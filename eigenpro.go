// Package eigenpro is the public API of the EigenPro 2.0 reproduction: a
// kernel machine that adapts its optimization to a parallel computational
// resource so that the critical mini-batch size m* matches the resource's
// maximum useful batch m_max, extending linear batch-size scaling to full
// device utilization (Ma & Belkin, "Kernel machines that adapt to GPUs for
// effective large batch training", MLSys 2019).
//
// Quick start:
//
//	ds := eigenpro.MNISTLike(2000, 1)
//	train, test := ds.Split(0.8, 1)
//	res, err := eigenpro.Train(eigenpro.Config{
//		Kernel: eigenpro.GaussianKernel(5),
//		Epochs: 10,
//	}, train.X, train.Y)
//	if err != nil { ... }
//	errRate := eigenpro.ClassificationError(res.Model.Predict(test.X), test.Labels)
//
// All optimization parameters — the fixed coordinate block size s, the
// spectral flattening depth q, the batch size m = m_max, and the step size
// η — are selected analytically from the kernel spectrum and the device
// model; the only real knobs are the kernel family and its bandwidth.
package eigenpro

import (
	"io"
	"net/http"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/device"
	"eigenpro/internal/falkon"
	"eigenpro/internal/jobs"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/internal/metrics"
	"eigenpro/internal/obs"
	"eigenpro/internal/obs/slo"
	"eigenpro/internal/serve"
	"eigenpro/internal/svm"
)

// Matrix is a row-major dense matrix of float64 values (one sample per
// row for data matrices).
type Matrix = mat.Dense

// NewMatrix allocates an r x c zero matrix.
func NewMatrix(r, c int) *Matrix { return mat.NewDense(r, c) }

// NewMatrixData wraps a backing slice (length r*c) without copying.
func NewMatrixData(r, c int, values []float64) *Matrix { return mat.NewDenseData(r, c, values) }

// Kernel is a positive definite kernel function.
type Kernel = kernel.Func

// GaussianKernel returns k(x,z) = exp(−‖x−z‖²/(2σ²)).
func GaussianKernel(sigma float64) Kernel { return kernel.Gaussian{Sigma: sigma} }

// LaplacianKernel returns k(x,z) = exp(−‖x−z‖/σ); the paper (§5.5)
// recommends it for faster training and robustness to σ.
func LaplacianKernel(sigma float64) Kernel { return kernel.Laplacian{Sigma: sigma} }

// CauchyKernel returns k(x,z) = 1/(1 + ‖x−z‖²/σ²).
func CauchyKernel(sigma float64) Kernel { return kernel.Cauchy{Sigma: sigma} }

// Matern32Kernel returns the Matérn ν=3/2 kernel
// (1 + √3r/σ)·exp(−√3r/σ).
func Matern32Kernel(sigma float64) Kernel { return kernel.Matern32{Sigma: sigma} }

// Matern52Kernel returns the Matérn ν=5/2 kernel
// (1 + √5r/σ + 5r²/3σ²)·exp(−√5r/σ).
func Matern52Kernel(sigma float64) Kernel { return kernel.Matern52{Sigma: sigma} }

// KernelByName constructs a kernel from its family name (gaussian,
// laplacian, cauchy, matern32, matern52) and bandwidth — the mapping
// shared by the CLI, the HTTP training endpoint, and model serialization.
func KernelByName(family string, sigma float64) (Kernel, error) {
	return kernel.ByName(family, sigma)
}

// Device models a parallel computational resource G = (C_G, S_G); see
// internal/device for the timing model.
type Device = device.Device

// SimTitanXp returns the default simulated GPU, scaled from the paper's
// Nvidia GTX Titan Xp.
func SimTitanXp() *Device { return device.SimTitanXp() }

// Config configures Train; zero values select the paper's automatic
// choices.
type Config = core.Config

// Method selects the optimizer.
type Method = core.Method

// Optimizer methods.
const (
	// MethodSGD is plain mini-batch kernel SGD.
	MethodSGD = core.MethodSGD
	// MethodEigenPro1 is the original 2017 EigenPro iteration (baseline).
	MethodEigenPro1 = core.MethodEigenPro1
	// MethodEigenPro2 is the improved Algorithm 1 iteration (default).
	MethodEigenPro2 = core.MethodEigenPro2
)

// MethodByName maps a method name (eigenpro2, eigenpro1, sgd) to its
// Method — the inverse of Method.String, shared by the CLI and the HTTP
// training endpoint.
func MethodByName(name string) (Method, error) { return core.MethodByName(name) }

// Model is a trained kernel machine f(x) = Σ_i α_i k(x_i, x).
type Model = core.Model

// Result reports a completed training run, including the analytically
// selected parameters (Params) and per-epoch history.
type Result = core.Result

// Params bundles the automatically selected quantities (q, m_max, η, ...);
// it corresponds to a row of the paper's Table 4.
type Params = core.Params

// Spectrum is a Nyström estimate of the kernel operator's top spectrum.
type Spectrum = core.Spectrum

// EpochStats records one epoch of training progress; Config.OnEpoch
// receives one per epoch.
type EpochStats = core.EpochStats

// Train fits a kernel machine on x with one-hot targets y.
func Train(cfg Config, x, y *Matrix) (*Result, error) { return core.Train(cfg, x, y) }

// Trainer is the interruptible training state machine behind Train: one
// Step per epoch, Checkpoint between steps, resume with ResumeTrainer.
// The async job manager (NewTrainingManager) is built on it.
type Trainer = core.Trainer

// NewTrainer prepares an interruptible training run (spectrum estimation
// and analytic parameter selection happen here).
func NewTrainer(cfg Config, x, y *Matrix) (*Trainer, error) { return core.NewTrainer(cfg, x, y) }

// ResumeTrainer reconstructs a Trainer from a Trainer.Checkpoint snapshot.
// x and y must be the training data of the original run; cfg contributes
// only the non-serializable ValX/ValLabels fields. The resumed run
// reproduces the uninterrupted run bit for bit.
func ResumeTrainer(r io.Reader, cfg Config, x, y *Matrix) (*Trainer, error) {
	return core.ResumeTrainer(r, cfg, x, y)
}

// ErrTrainingComplete is returned by Trainer.Step after training finished.
var ErrTrainingComplete = core.ErrTrainingComplete

// EstimateSpectrum computes a reusable Nyström spectrum from an s-point
// subsample with qmax eigenpairs.
func EstimateSpectrum(k Kernel, x *Matrix, s, qmax int, seed int64) (*Spectrum, error) {
	return core.EstimateSpectrum(k, x, s, qmax, seed)
}

// SelectParams runs the paper's Steps 1-2: batch-size and q selection for
// the given workload shape on the given device.
func SelectParams(sp *Spectrum, dev *Device, n, dim, labels int) Params {
	return core.SelectParams(sp, dev, n, dim, labels)
}

// SolveExact computes the interpolating solution K⁻¹y directly (O(n³);
// small problems only).
func SolveExact(k Kernel, x, y *Matrix, jitter float64) (*Model, error) {
	return core.SolveExact(k, x, y, jitter)
}

// BandwidthCandidate pairs a kernel with its cross-validation score.
type BandwidthCandidate = core.BandwidthCandidate

// BandwidthConfig controls SelectBandwidth.
type BandwidthConfig = core.BandwidthConfig

// SelectBandwidth cross-validates candidate kernels on a small subsample
// (the paper's Appendix B bandwidth-selection protocol) and returns the
// winner with all scores.
func SelectBandwidth(cands []Kernel, x, y *Matrix, labels []int, cfg BandwidthConfig) (Kernel, []BandwidthCandidate, error) {
	return core.SelectBandwidth(cands, x, y, labels, cfg)
}

// GaussianBandwidthLadder returns Gaussian kernels geometrically spaced
// around the median pairwise distance of a subsample — a standard CV grid.
func GaussianBandwidthLadder(x *Matrix, rungs int, seed int64) []Kernel {
	return core.GaussianBandwidthLadder(x, rungs, seed)
}

// SaveModel / LoadModel persist trained models with encoding/gob.
var (
	// SaveModel writes a model to w.
	SaveModel = core.SaveModel
	// LoadModel reads a model written by SaveModel.
	LoadModel = core.LoadModel
	// SaveSpectrum writes a Nyström spectrum to w.
	SaveSpectrum = core.SaveSpectrum
	// LoadSpectrum reads a spectrum written by SaveSpectrum.
	LoadSpectrum = core.LoadSpectrum
)

// Server is a concurrent model server that coalesces individual Predict
// calls into micro-batches sized to the device model's maximum useful batch
// m_max — the paper's batching discipline applied to the serving path. See
// internal/serve for the batching, admission-control, and statistics
// details.
type Server = serve.Server

// ServerConfig configures NewServer; zero values select the defaults
// (simulated Titan Xp device, 2ms flush latency, GOMAXPROCS workers).
type ServerConfig = serve.Config

// ServerStats is a snapshot of a server's counters: throughput, p50/p99
// latency, simulated device time, and the batch-occupancy histogram.
type ServerStats = serve.Stats

// Serving errors a caller can match with errors.Is.
var (
	// ErrServerOverloaded reports a queue-full admission rejection.
	ErrServerOverloaded = serve.ErrOverloaded
	// ErrServerClosed reports a request against a closed server.
	ErrServerClosed = serve.ErrClosed
	// ErrUnknownModel reports a request for an unregistered model name.
	ErrUnknownModel = serve.ErrUnknownModel
	// ErrRequestExpired reports a per-request deadline that lapsed while
	// the request was queued.
	ErrRequestExpired = serve.ErrDeadlineExceeded
	// ErrRequestShed reports a deadline-aware admission rejection
	// (ServerConfig.Shed): the request's deadline could not survive the
	// estimated queue wait, so it was refused before queueing doomed work.
	ErrRequestShed = serve.ErrShed
	// ErrServerDraining reports a request against a draining server:
	// admission is closed for graceful shutdown (Server.Drain) while
	// already-admitted requests flush. /readyz reports the same condition
	// as 503 "draining".
	ErrServerDraining = serve.ErrDraining
)

// NewServer starts a batched inference server. Register models with
// Server.Register or Server.LoadModel, predict with Server.Predict, and
// inspect Server.Stats; call Close to release its goroutines.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// NewServerHandler exposes a server over HTTP JSON: POST /v1/predict,
// GET /v1/models, PUT /v1/models/{name}, GET /v1/stats, and the ops routes
// GET /metrics, /debug/traces, /debug/events, /debug/slo, /debug/flight,
// /healthz and /readyz.
func NewServerHandler(s *Server) http.Handler { return serve.NewHandler(s) }

// MetricsRegistry is a dependency-free metrics registry (counters, gauges,
// fixed-bucket histograms) with Prometheus text exposition. Pass one
// registry as both ServerConfig.Metrics and TrainingConfig.Metrics to
// expose serving, job, and training series from a single /metrics
// endpoint.
type MetricsRegistry = obs.Registry

// EventLog is a lock-free bounded ring of wide events: one structured
// record per served request, training epoch, and job state transition,
// with leveled severity, head+tail sampling (errors always kept, ok
// requests recorded 1-in-N), and an optional JSON-lines sink. It is the
// only per-request and per-job record: /debug/traces reads its span
// traces out of the same events. Pass one log as both ServerConfig.Events
// and TrainingConfig.Events to read the whole system's history from a
// single /debug/events or /debug/traces endpoint.
type EventLog = obs.EventLog

// Event is one wide event record; see EventLog.
type Event = obs.Event

// EventQuery filters EventLog.Query (zero fields match everything).
type EventQuery = obs.EventQuery

// Event severity levels.
type EventLevel = obs.Level

// Event severities.
const (
	EventInfo  = obs.LevelInfo
	EventWarn  = obs.LevelWarn
	EventError = obs.LevelError
)

// MetricLabel is one name=value metric dimension.
type MetricLabel = obs.Label

// Label is shorthand for MetricLabel{k, v}.
func Label(k, v string) MetricLabel { return obs.L(k, v) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog returns an event log retaining the newest capacity events
// (<= 0 selects a default capacity of 4096).
func NewEventLog(capacity int) *EventLog { return obs.NewEventLog(capacity) }

// RegisterRuntimeMetrics registers Go runtime telemetry (goroutines,
// heap, GC pauses, scheduler latency) into reg. GET /metrics already
// exposes these from a process-wide registry; use this only to place the
// go_* series in a registry of your own.
func RegisterRuntimeMetrics(reg *MetricsRegistry) { obs.RegisterRuntimeMetrics(reg) }

// LogTraining returns a Config.OnEpoch hook that emits one wide
// train.epoch event per completed epoch into log, labeled with the given
// job or run name. The training manager installs this automatically for
// its jobs; use it directly to log a standalone Train run.
func LogTraining(log *EventLog, job string) func(EpochStats) {
	return core.LogTraining(log, job, "", core.EpochStats{})
}

// PprofHandler serves the net/http/pprof profiling endpoints under
// /debug/pprof/ — mount it explicitly (it is never wired in by default).
func PprofHandler() http.Handler { return obs.PprofHandler() }

// SLOEvaluator judges the telemetry the rest of the system emits:
// declarative objectives (availability, latency, training progress)
// evaluated on a fixed cadence from the MetricsRegistry and EventLog into
// Google-SRE-style multi-window burn rates with fast (page) and slow
// (warn) alert rules, hysteresis, and wide slo.state transition events.
// It polls — the serving and training hot paths carry no new locks or
// instrumentation. A nil *SLOEvaluator is valid everywhere and reports
// every objective healthy. See internal/obs/slo.
type SLOEvaluator = slo.Evaluator

// SLOConfig configures NewSLOEvaluator: the objectives, the fast-rule
// window (slow is 6x), the evaluation cadence, and the telemetry sources.
// Set Flight to a FlightRecorder to capture a debugging snapshot on every
// escalation to page.
type SLOConfig = slo.Config

// SLOObjective declares one objective; zero optional fields select
// defaults (target 99%, 250ms latency threshold, the serving series).
type SLOObjective = slo.Objective

// SLOKind selects what an SLOObjective measures.
type SLOKind = slo.Kind

// Objective kinds.
const (
	// SLOAvailability measures the non-ok outcome ratio over served
	// requests (rejected + expired + abandoned + shed vs completed).
	SLOAvailability = slo.Availability
	// SLOLatency measures the fraction of requests completing under the
	// objective's LatencyP99 threshold.
	SLOLatency = slo.Latency
	// SLOTrainingProgress measures per-job training health from
	// train.epoch wide events: epoch-duration stretch and validation-error
	// regression.
	SLOTrainingProgress = slo.TrainingProgress
)

// SLOStatus is the full /debug/slo payload: every objective's burn rates,
// error-budget remaining, and alert state, plus the transition history.
type SLOStatus = slo.Status

// SLOObjectiveStatus is one objective's current standing within an
// SLOStatus.
type SLOObjectiveStatus = slo.ObjectiveStatus

// SLOTransition is one recorded ok|warn|page alert-state change.
type SLOTransition = slo.Transition

// NewSLOEvaluator validates cfg, registers the eigenpro_slo_* gauges into
// cfg.Metrics (default cfg.Source), and starts the background evaluation
// loop; call Close to release it. Give the evaluator once, as
// ServerConfig.SLO, so the HTTP handler serves GET /debug/slo, serves its
// SLOConfig.Flight recorder at GET /debug/flight, and degrades /readyz
// while an objective pages.
func NewSLOEvaluator(cfg SLOConfig) (*SLOEvaluator, error) { return slo.New(cfg) }

// FlightRecorder captures breach-triggered debugging snapshots: a CPU
// profile, heap profile, goroutine dump, the newest wide events, the span
// traces they hold, and both metrics expositions, written as one
// directory per capture into a bounded, rate-limited disk ring. Arm it
// via SLOConfig.Flight so every warn→page escalation ships with the
// evidence needed to diagnose it. A nil *FlightRecorder is valid and
// disables capturing.
type FlightRecorder = obs.FlightRecorder

// FlightConfig configures NewFlightRecorder; zero values select the
// defaults (8 snapshots, >= 5m apart, 5s CPU profile, 512 events).
type FlightConfig = obs.FlightConfig

// FlightSnapshot describes one captured snapshot, as listed by
// GET /debug/flight.
type FlightSnapshot = obs.FlightSnapshot

// NewFlightRecorder returns a recorder writing snapshots under cfg.Dir
// (default <tmp>/eigenpro-flight), creating the directory if needed.
func NewFlightRecorder(cfg FlightConfig) (*FlightRecorder, error) {
	return obs.NewFlightRecorder(cfg)
}

// ObserveTraining returns a Config.OnEpoch hook that records per-epoch
// training telemetry (epoch/iteration counters, epoch-duration histogram,
// and labeled train-MSE / validation-error / device-utilization gauges)
// into reg. The training manager installs this automatically for its jobs;
// use it directly to instrument a standalone Train run.
func ObserveTraining(reg *MetricsRegistry, labels ...MetricLabel) func(EpochStats) {
	return core.ObserveTraining(reg, core.EpochStats{}, labels...)
}

// TrainingManager runs submitted training jobs asynchronously on a bounded
// worker pool with per-epoch status, cancellation (checkpointing at the
// next epoch boundary), bit-exact resume, and auto-registration of
// completed models into a serving registry. See internal/jobs.
type TrainingManager = jobs.Manager

// TrainingConfig configures NewTrainingManager. Set Registrar to a *Server
// so completed models become servable with no manual step.
type TrainingConfig = jobs.Config

// TrainingSpec describes one training job: a model name, a training
// Config, and the data.
type TrainingSpec = jobs.Spec

// TrainingJob is a point-in-time snapshot of a job's status and metrics.
type TrainingJob = jobs.Info

// JobState is a training-job lifecycle phase.
type JobState = jobs.State

// Training-job lifecycle states.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobCancelled = jobs.StateCancelled
	JobDone      = jobs.StateDone
	JobFailed    = jobs.StateFailed
)

// Training-job lifecycle errors a caller can match with errors.Is.
var (
	// ErrJobsClosed reports an operation against a closed manager.
	ErrJobsClosed = jobs.ErrClosed
	// ErrJobQueueFull reports a submission rejected by admission control.
	ErrJobQueueFull = jobs.ErrQueueFull
	// ErrUnknownJob reports an unknown job id.
	ErrUnknownJob = jobs.ErrUnknownJob
)

// NewTrainingManager starts an async training-job manager. Submit with
// SubmitTraining (or Manager.Submit), watch with JobStatus/Wait, stop with
// Cancel, continue with Resume; call Close to release the workers.
func NewTrainingManager(cfg TrainingConfig) *TrainingManager { return jobs.New(cfg) }

// OpenTrainingManager starts a training-job manager with crash-safe
// durability when cfg.StateDir is set: every lifecycle transition is
// journaled, running jobs checkpoint at epoch boundaries, and opening the
// same state directory again replays the journal — finished models
// re-register into cfg.Registrar, and jobs interrupted by a crash or
// shutdown resume automatically, reproducing the uninterrupted run bit for
// bit. With an empty StateDir it behaves exactly like NewTrainingManager.
func OpenTrainingManager(cfg TrainingConfig) (*TrainingManager, error) { return jobs.Open(cfg) }

// SubmitTraining enqueues a training job and returns its id.
func SubmitTraining(m *TrainingManager, spec TrainingSpec) (string, error) { return m.Submit(spec) }

// JobStatus returns a snapshot of a training job's status and metrics.
func JobStatus(m *TrainingManager, id string) (TrainingJob, bool) { return m.Job(id) }

// NewTrainServeHandler combines the training-job endpoints
//
//	POST /train, GET /jobs, GET /jobs/{id}, DELETE /jobs/{id},
//	POST /jobs/{id}/cancel, POST /jobs/{id}/resume
//
// with the serving endpoints and ops routes of NewServerHandler
//
//	POST /v1/predict, GET /v1/models, PUT /v1/models/{name}, GET /v1/stats,
//	GET /metrics, GET /debug/traces, GET /debug/events, GET /debug/slo,
//	GET /debug/flight, GET /healthz, GET /readyz
//
// on one mux, with the manager as the server's peer. When the manager's
// Registrar is s, a model trained via POST /train is immediately servable
// via POST /v1/predict under its submitted name — the full train → serve
// loop over one HTTP server.
//
// GET /metrics merges the server's and the manager's registries (one
// exposition when they share a registry), and GET /debug/traces and
// GET /debug/events merge both wide-event logs. GET /debug/slo and
// GET /debug/flight serve ServerConfig.SLO and the recorder it was armed
// with. GET /readyz is 503 "draining" once Server.Drain has begun, 503
// "not ready" until a model is servable or the manager accepts jobs, 503
// "degraded: slo page" while an SLO objective is paging, and 200 "ok"
// otherwise.
func NewTrainServeHandler(s *Server, m *TrainingManager) http.Handler {
	mux := http.NewServeMux()
	jh := jobs.NewHandler(m)
	mux.Handle("/train", jh)
	mux.Handle("/jobs", jh)
	mux.Handle("/jobs/", jh)
	mux.Handle("/", serve.NewHandler(s, m))
	return mux
}

// NewDeviceGroup composes count identical devices into one data-parallel
// resource (the paper's §6 multi-GPU direction).
func NewDeviceGroup(base *Device, count int, opt DeviceGroupOptions) (*Device, error) {
	return device.NewGroup(base, count, opt)
}

// DeviceGroupOptions configures NewDeviceGroup.
type DeviceGroupOptions = device.GroupOptions

// Dataset is a labeled sample collection.
type Dataset = data.Dataset

// GenConfig controls synthetic dataset generation.
type GenConfig = data.GenConfig

// GenerateDataset builds a synthetic classification dataset.
func GenerateDataset(cfg GenConfig) *Dataset { return data.Generate(cfg) }

// MNISTLike generates an MNIST-shaped synthetic dataset (784 features,
// 10 classes, values in [0,1]).
func MNISTLike(n int, seed int64) *Dataset { return data.MNISTLike(n, seed) }

// CIFAR10Like generates a grayscale-CIFAR-shaped dataset (1024 features,
// 10 classes).
func CIFAR10Like(n int, seed int64) *Dataset { return data.CIFAR10Like(n, seed) }

// SVHNLike generates a grayscale-SVHN-shaped dataset (1024 features,
// 10 classes).
func SVHNLike(n int, seed int64) *Dataset { return data.SVHNLike(n, seed) }

// TIMITLike generates a TIMIT-frame-shaped dataset (440 z-scored features,
// 48 classes).
func TIMITLike(n int, seed int64) *Dataset { return data.TIMITLike(n, seed) }

// SUSYLike generates a SUSY-shaped dataset (18 features, 2 classes).
func SUSYLike(n int, seed int64) *Dataset { return data.SUSYLike(n, seed) }

// ImageNetFeaturesLike generates a dataset shaped like the paper's
// PCA-reduced ImageNet CNN features (256 features, 50 classes).
func ImageNetFeaturesLike(n int, seed int64) *Dataset { return data.ImageNetFeaturesLike(n, seed) }

// DatasetByName generates the preset dataset with the given name (mnist,
// cifar10, svhn, timit, susy, imagenet) — the mapping shared by the CLI
// and the HTTP training endpoint.
func DatasetByName(name string, n int, seed int64) (*Dataset, error) {
	return data.ByName(name, n, seed)
}

// ReadCSV parses label-first CSV rows into a dataset.
func ReadCSV(r io.Reader, name string) (*Dataset, error) { return data.ReadCSV(r, name) }

// WriteCSV writes a dataset as label-first CSV rows.
func WriteCSV(w io.Writer, ds *Dataset) error { return data.WriteCSV(w, ds) }

// ReadLibSVM parses LibSVM/SVMLight sparse rows into a dense dataset; pass
// dim 0 to infer the feature dimension.
func ReadLibSVM(r io.Reader, name string, dim int) (*Dataset, error) {
	return data.ReadLibSVM(r, name, dim)
}

// WriteLibSVM writes a dataset in LibSVM/SVMLight sparse format.
func WriteLibSVM(w io.Writer, ds *Dataset) error { return data.WriteLibSVM(w, ds) }

// MSE returns the mean squared error between predictions and targets.
func MSE(pred, target *Matrix) float64 { return metrics.MSE(pred, target) }

// ClassificationError returns the argmax misclassification rate.
func ClassificationError(pred *Matrix, labels []int) float64 {
	return metrics.ClassificationError(pred, labels)
}

// FalkonConfig configures the FALKON baseline (Rudi et al. 2017).
type FalkonConfig = falkon.Config

// FalkonResult reports a FALKON fit.
type FalkonResult = falkon.Result

// FitFalkon trains the FALKON baseline.
func FitFalkon(cfg FalkonConfig, x, y *Matrix) (*FalkonResult, error) { return falkon.Fit(cfg, x, y) }

// SVMConfig configures the SMO kernel-SVM baseline.
type SVMConfig = svm.Config

// SVMResult reports an SVM fit.
type SVMResult = svm.Result

// TrainSVM fits a one-vs-rest kernel SVM (LibSVM stand-in; set
// Config.Parallel for the ThunderSVM-like driver).
func TrainSVM(cfg SVMConfig, x *Matrix, labels []int, classes int) (*SVMResult, error) {
	return svm.Train(cfg, x, labels, classes)
}
