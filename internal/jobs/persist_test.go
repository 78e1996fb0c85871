package jobs

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/device"
	"eigenpro/internal/durable"
	"eigenpro/internal/fault"
	"eigenpro/internal/kernel"
	"eigenpro/internal/obs"
)

// waitEpoch blocks until the job completes at least n epochs (or fails
// the test on terminal/timeout).
func waitEpoch(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, ok := m.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if info.Epoch >= n {
			return
		}
		if terminal(info.State) || time.Now().After(deadline) {
			t.Fatalf("job never reached epoch %d: %+v", n, info)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertBitIdentical compares a recovered model against the reference
// coefficient by coefficient.
func assertBitIdentical(t *testing.T, got, want *core.Model, context string) {
	t.Helper()
	if got.X.Rows != want.X.Rows || got.Alpha.Cols != want.Alpha.Cols {
		t.Fatalf("%s: model shape %dx%d vs %dx%d", context, got.X.Rows, got.Alpha.Cols, want.X.Rows, want.Alpha.Cols)
	}
	for i, v := range got.Alpha.Data {
		if v != want.Alpha.Data[i] {
			t.Fatalf("%s: coefficient %d differs: %v != %v", context, i, v, want.Alpha.Data[i])
		}
	}
}

func TestPersistentDoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	regA := &countingRegistrar{}
	mA, err := Open(Config{Workers: 1, StateDir: dir, Registrar: regA})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mA.Submit(smallSpec("persist-done", 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	info, err := mA.Wait(id)
	if err != nil || info.State != StateDone {
		t.Fatalf("first run: %+v err=%v", info, err)
	}
	want, _ := mA.Model(id)
	mA.Close()

	// The on-disk layout is the documented contract.
	for _, f := range []string{"journal.jsonl", "jobs/" + id + "/spec.gob", "jobs/" + id + "/model.gob"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("state-dir layout missing %s: %v", f, err)
		}
	}

	regB := &countingRegistrar{}
	mB, err := Open(Config{Workers: 1, StateDir: dir, Registrar: regB})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Close()
	if mB.Recovered() != 1 {
		t.Fatalf("recovered %d jobs, want 1", mB.Recovered())
	}
	info, ok := mB.Job(id)
	if !ok || info.State != StateDone || !info.Servable || !info.Recovered {
		t.Fatalf("recovered job: %+v", info)
	}
	// The finished model was re-registered into the serving registrar and
	// reloads bit-identically.
	regB.mu.Lock()
	reRegistered := len(regB.names) == 1 && regB.names[0] == "persist-done"
	regB.mu.Unlock()
	if !reRegistered {
		t.Fatalf("model not re-registered: %v", regB.names)
	}
	got, ok := mB.Model(id)
	if !ok {
		t.Fatal("no model on recovered job")
	}
	assertBitIdentical(t, got, want, "recovered done model")
	// A new submission on the recovered manager does not reuse the id.
	id2, err := mB.Submit(smallSpec("persist-done-2", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("recovered manager reissued id %s", id)
	}
}

// TestRestartResumesInterruptedBitExact is the tentpole guarantee: a job
// interrupted by shutdown resumes automatically after restart from its
// durable checkpoint and produces a final model bit-identical to an
// uninterrupted run.
func TestRestartResumesInterruptedBitExact(t *testing.T) {
	spec := smallSpec("persist-exact", 80, 3)
	ref, err := core.Train(spec.Config, spec.X, spec.Y)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mA, err := Open(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, mA, id, 2)
	// Shutdown mid-training: the trainer parks with a durable checkpoint
	// and the journal records the interruption.
	mA.Close()
	info, _ := mA.Job(id)
	if info.State != StateCancelled || info.Epoch >= info.Epochs {
		t.Fatalf("job after shutdown: %+v", info)
	}

	events := obs.NewEventLog(0)
	mB, err := Open(Config{Workers: 1, StateDir: dir, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Close()
	info, ok := mB.Job(id)
	if !ok || !info.Recovered {
		t.Fatalf("job not recovered: %+v", info)
	}
	final, err := mB.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("recovered job ended %q (err %q)", final.State, final.Error)
	}
	if final.Resumes < 1 {
		t.Fatalf("recovered job shows %d resumes", final.Resumes)
	}
	got, _ := mB.Model(id)
	assertBitIdentical(t, got, ref.Model, "restart-resumed model")
	// Recovery is observable: the job.recovered wide event landed and the
	// recovered counter reads 1.
	if evs := events.Query(obs.EventQuery{Kind: obs.KindJobRecovered}); len(evs) != 1 {
		t.Fatalf("job.recovered events: %d, want 1", len(evs))
	}
	if v, ok := mB.Metrics().Value(MetricJobsRecovered); !ok || v != 1 {
		t.Fatalf("%s = %v,%v", MetricJobsRecovered, v, ok)
	}
}

func TestPersistentCancelStaysCancelledAcrossRestart(t *testing.T) {
	spec := smallSpec("persist-cancel", 80, 5)
	ref, err := core.Train(spec.Config, spec.X, spec.Y)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mA, err := Open(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, mA, id, 1)
	if err := mA.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if info, err := mA.Wait(id); err != nil || info.State != StateCancelled {
		t.Fatalf("cancel: %+v err=%v", info, err)
	}
	mA.Close()

	mB, err := Open(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Close()
	// A user cancel is a decision, not an accident: the restarted manager
	// must NOT auto-resume it.
	info, ok := mB.Job(id)
	if !ok || info.State != StateCancelled {
		t.Fatalf("cancelled job after restart: %+v", info)
	}
	if !info.Checkpointed {
		t.Fatal("cancelled job lost its checkpoint across restart")
	}
	// But an explicit resume continues the identical run.
	if err := mB.Resume(id); err != nil {
		t.Fatal(err)
	}
	final, err := mB.Wait(id)
	if err != nil || final.State != StateDone {
		t.Fatalf("resume after restart: %+v err=%v", final, err)
	}
	got, _ := mB.Model(id)
	assertBitIdentical(t, got, ref.Model, "cancel+restart+resume model")
}

func TestDeletedJobDoesNotReappear(t *testing.T) {
	dir := t.TempDir()
	mA, err := Open(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mA.Submit(smallSpec("persist-del", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Wait(id); err != nil {
		t.Fatal(err)
	}
	if err := mA.Delete(id); err != nil {
		t.Fatal(err)
	}
	mA.Close()
	if _, err := os.Stat(filepath.Join(dir, "jobs", id)); !os.IsNotExist(err) {
		t.Fatalf("deleted job's artifacts survive: %v", err)
	}

	mB, err := Open(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Close()
	if n := len(mB.Jobs()); n != 0 {
		t.Fatalf("deleted job reappeared: %d jobs", n)
	}
}

func TestRecoveryRejectsCorruptArtifacts(t *testing.T) {
	spec := smallSpec("persist-corrupt", 80, 7)
	ref, err := core.Train(spec.Config, spec.X, spec.Y)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mA, err := Open(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, mA, id, 2)
	mA.Close()

	// Damage the sealed checkpoint: recovery must detect it, count it,
	// requeue from scratch, and still converge to the identical model —
	// never load the torn bytes.
	ckpt := filepath.Join(dir, "jobs", id, "checkpoint.gob")
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	before := durable.CorruptRecords()
	events := obs.NewEventLog(0)
	mB, err := Open(Config{Workers: 1, StateDir: dir, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if durable.CorruptRecords() <= before {
		t.Fatal("corrupt checkpoint not counted")
	}
	// The durability counter is surfaced as a metric series.
	if v, ok := mB.Metrics().Value(MetricDurableCorruptRecords); !ok || v == 0 {
		t.Fatalf("%s = %v,%v", MetricDurableCorruptRecords, v, ok)
	}
	if evs := events.Query(obs.EventQuery{Kind: obs.KindDurableError}); len(evs) == 0 {
		t.Fatal("no durable.error event for the corrupt checkpoint")
	}
	final, err := mB.Wait(id)
	if err != nil || final.State != StateDone {
		t.Fatalf("after corrupt checkpoint: %+v err=%v", final, err)
	}
	got, _ := mB.Model(id)
	assertBitIdentical(t, got, ref.Model, "from-scratch after corrupt checkpoint")
	mB.Close()

	// Now corrupt the finished model of a done job: recovery must fail
	// the job with a recovery error, not register garbage.
	model := filepath.Join(dir, "jobs", id, "model.gob")
	raw, err = os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xff
	if err := os.WriteFile(model, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := &countingRegistrar{}
	mC, err := Open(Config{Workers: 1, StateDir: dir, Registrar: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer mC.Close()
	info, ok := mC.Job(id)
	if !ok || info.State != StateFailed || !strings.Contains(info.Error, "recovery") {
		t.Fatalf("corrupt-model job: %+v", info)
	}
	reg.mu.Lock()
	registered := len(reg.names)
	reg.mu.Unlock()
	if registered != 0 {
		t.Fatal("corrupt model was registered for serving")
	}

	// A sealed spec whose X header claims 4x2^62 with no data: 4·2^62
	// wraps to 0 elements, so only an overflow guard rejects it. Recovery
	// must fail the job, never requeue it into a trainer that would try
	// to allocate that matrix.
	hostile := t.TempDir()
	jr, _, err := durable.OpenJournal(durable.OS{}, filepath.Join(hostile, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journalRecord{Type: recSubmitted, Job: "job-1", Name: "hostile", At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	type matrix struct {
		Rows, Cols int
		Data       []float64
	}
	type flatSpec struct {
		Version      int
		KernelFamily string
		KernelSigma  float64
		Epochs       int
		X, Y         matrix
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(flatSpec{
		Version: 1, KernelFamily: "gaussian", KernelSigma: 3, Epochs: 2,
		X: matrix{Rows: 4, Cols: 1 << 62},
		Y: matrix{Rows: 4, Cols: 1, Data: make([]float64, 4)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(hostile, "jobs", "job-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(durable.OS{}, filepath.Join(hostile, "jobs", "job-1", "spec.gob"), payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	mD, err := Open(Config{Workers: 1, StateDir: hostile})
	if err != nil {
		t.Fatal(err)
	}
	defer mD.Close()
	info, ok = mD.Job("job-1")
	if !ok || info.State != StateFailed || !strings.Contains(info.Error, "recovery") || info.Resumes != 0 {
		t.Fatalf("overflowing-spec job: %+v", info)
	}
}

// TestRecoverVersion1StateDir recovers a state directory written by the
// version-1 (flat) spec and checkpoint layouts: a job interrupted after
// epoch 1 of 4, with a custom device and a validation set. The resumed
// run must finish bit-identical to core.Train on the same spec, which
// also proves the device and the validation set decoded.
//
// testdata/statedir-v1 holds the journal, spec.gob and checkpoint.gob
// exactly as that format's manager sealed them.
func TestRecoverVersion1StateDir(t *testing.T) {
	spec := v1FixtureSpec()
	ref, err := core.Train(spec.Config, spec.X, spec.Y)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join("testdata", "statedir-v1")
	for _, f := range []string{"journal.jsonl", "jobs/job-1/spec.gob", "jobs/job-1/checkpoint.gob"} {
		raw, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := &countingRegistrar{}
	m, err := Open(Config{Workers: 1, StateDir: dir, Registrar: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, ok := m.Job("job-1")
	if !ok || !info.Recovered || !info.Checkpointed || info.Epoch != 1 {
		t.Fatalf("recovered job: %+v", info)
	}
	final, err := m.Wait("job-1")
	if err != nil || final.State != StateDone || final.Name != spec.Name {
		t.Fatalf("recovered job ended %+v err=%v", final, err)
	}
	got, _ := m.Model("job-1")
	assertBitIdentical(t, got, ref.Model, "version-1 state dir")
}

// v1FixtureSpec is the spec testdata/statedir-v1 was written from. Its
// device has a small C_G, so losing the device on decode would change
// the batch size and break bit-identity.
func v1FixtureSpec() Spec {
	ds := data.SUSYLike(160, 21)
	val := data.SUSYLike(40, 22)
	dev := device.SimTitanXp()
	dev.Name = "fixture-device"
	dev.ParallelOps = 1e5
	return Spec{
		Name: "fixture",
		Config: core.Config{
			Kernel:       kernel.Gaussian{Sigma: 3},
			Device:       dev,
			S:            48,
			QMax:         12,
			Epochs:       4,
			MaxIters:     10000,
			StopTrainMSE: 1e-12,
			ValX:         val.X,
			ValLabels:    val.Labels,
			Patience:     10,
			Seed:         21,
		},
		X: ds.X,
		Y: ds.Y,
	}
}

// TestChaosKillRestartCycles is the fault-injection chaos sweep: the
// manager runs against a filesystem that crashes at a deterministic
// operation count (tearing the in-flight write, then failing everything,
// exactly like kill -9 at that instant), and a fresh manager then
// recovers the state directory. At every crash point: recovery succeeds,
// no corrupt state is ever loaded (a done job's model always verifies and
// matches the reference bit for bit), and jobs whose durable trail
// survived resume and finish identically.
func TestChaosKillRestartCycles(t *testing.T) {
	spec := smallSpec("chaos", 6, 11)
	ref, err := core.Train(spec.Config, spec.X, spec.Y)
	if err != nil {
		t.Fatal(err)
	}

	recovered, completed := 0, 0
	for crashAfter := int64(1); crashAfter <= 61; crashAfter += 5 {
		dir := t.TempDir()
		ffs := fault.Wrap(durable.OS{}, fault.Config{Seed: crashAfter, CrashAfter: crashAfter})
		mA, err := Open(Config{Workers: 1, StateDir: dir, FS: ffs})
		if err == nil {
			// Persistence failures after the crash point are tolerated by
			// design (the in-memory run proceeds), so the first manager
			// always reaches a terminal state; only its durable trail is
			// cut short at the crash.
			if id, serr := mA.Submit(spec); serr == nil {
				if _, werr := mA.Wait(id); werr != nil {
					t.Fatalf("crashAfter=%d: wait: %v", crashAfter, werr)
				}
			}
			mA.Close()
		}

		// "Reboot": a clean filesystem over whatever the crash left.
		mB, err := Open(Config{Workers: 1, StateDir: dir})
		if err != nil {
			t.Fatalf("crashAfter=%d: recovery open: %v", crashAfter, err)
		}
		for _, info := range mB.Jobs() {
			final, werr := mB.Wait(info.ID)
			if werr != nil {
				t.Fatalf("crashAfter=%d: %v", crashAfter, werr)
			}
			switch final.State {
			case StateDone:
				got, ok := mB.Model(final.ID)
				if !ok {
					t.Fatalf("crashAfter=%d: done without model", crashAfter)
				}
				assertBitIdentical(t, got, ref.Model, "chaos-recovered model")
				completed++
			case StateFailed:
				// Legitimate only as a surfaced recovery error (e.g. the
				// spec never became durable), never a silent wrong result.
				if !strings.Contains(final.Error, "recovery") {
					t.Fatalf("crashAfter=%d: unexpected failure %q", crashAfter, final.Error)
				}
			case StateCancelled:
				// Queue-full fallback; not expected with default depth.
				t.Fatalf("crashAfter=%d: job left cancelled", crashAfter)
			}
			recovered++
		}
		mB.Close()
	}
	// The sweep must actually exercise recovery, not just trivially pass
	// with empty state dirs.
	if recovered == 0 || completed == 0 {
		t.Fatalf("chaos sweep recovered %d jobs, completed %d — crash points need retuning", recovered, completed)
	}
}

// TestPersistErrorsTolerated proves availability wins over durability:
// with every Nth filesystem operation failing, jobs still run to done,
// and every swallowed failure is counted and surfaced as a wide event.
func TestPersistErrorsTolerated(t *testing.T) {
	dir := t.TempDir()
	events := obs.NewEventLog(0)
	ffs := fault.Wrap(durable.OS{}, fault.Config{Seed: 3, FailEvery: 5})
	m, err := Open(Config{Workers: 1, StateDir: dir, FS: ffs, Events: events})
	if err != nil {
		// The journal open itself drew a failing op; that configuration
		// legitimately refuses to start.
		t.Skipf("store open hit an injected fault: %v", err)
	}
	defer m.Close()
	id, err := m.Submit(smallSpec("tolerated", 4, 13))
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(id)
	if err != nil || final.State != StateDone {
		t.Fatalf("job under fault injection: %+v err=%v", final, err)
	}
	if v, ok := m.Metrics().Value(MetricDurableWriteErrors); !ok || v == 0 {
		t.Fatalf("%s = %v,%v — injected failures not counted", MetricDurableWriteErrors, v, ok)
	}
	if evs := events.Query(obs.EventQuery{Kind: obs.KindDurableError}); len(evs) == 0 {
		t.Fatal("no durable.error events under fault injection")
	}
}

// TestSubmitJournalsSubmittedFirst submits many jobs to idle workers, which
// dequeue each job the moment it is enqueued, and requires every job's
// first journal record to be "submitted": a worker's "started" must never
// precede it.
func TestSubmitJournalsSubmittedFirst(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Workers: 4, QueueDepth: 64, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec("order", 1, 1)
	spec.X, spec.Y = spec.X.SliceRows(0, 40), spec.Y.SliceRows(0, 40)
	spec.Config.S = 20
	var ids []string
	for i := 0; i < 40; i++ {
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if info, err := m.Wait(id); err != nil || info.State != StateDone {
			t.Fatalf("job %s: %+v err=%v", id, info, err)
		}
	}
	m.Close()

	jr, replay, err := durable.OpenJournal(durable.OS{}, filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	first := map[string]string{}
	for _, raw := range replay.Records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if _, seen := first[rec.Job]; !seen {
			first[rec.Job] = rec.Type
		}
	}
	for _, id := range ids {
		if first[id] != recSubmitted {
			t.Fatalf("job %s: first journal record %q, want %q", id, first[id], recSubmitted)
		}
	}
}
