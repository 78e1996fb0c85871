package eigenpro

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestTrainServeLoopHTTP exercises the acceptance criterion end to end
// through the public surface: a model trained via POST /train on the
// combined handler is servable via POST /v1/predict on the same server
// with no manual registration step.
func TestTrainServeLoopHTTP(t *testing.T) {
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	mgr := NewTrainingManager(TrainingConfig{Workers: 2, Registrar: srv})
	defer mgr.Close()
	ts := httptest.NewServer(NewTrainServeHandler(srv, mgr))
	defer ts.Close()

	// Submit training over HTTP.
	body := `{"name":"susy-http","dataset":"susy","n":300,"epochs":3,"s":64,"sigma":3,"seed":4}`
	resp, err := http.Post(ts.URL+"/train", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var job TrainingJob
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("POST /train: %d %+v", resp.StatusCode, job)
	}

	// Watch the job over HTTP until it completes.
	deadline := time.Now().Add(120 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur TrainingJob
		if err := json.NewDecoder(r.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if cur.State == JobDone {
			if !cur.Servable {
				t.Fatalf("done but not servable: %+v", cur)
			}
			break
		}
		if cur.State == JobFailed || cur.State == JobCancelled {
			t.Fatalf("job ended %q (%s)", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Predict against the freshly trained model on the SAME server.
	query := SUSYLike(4, 9).X.RowView(0)
	pb, _ := json.Marshal(map[string]any{"model": "susy-http", "x": query})
	pr, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(pb))
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/predict after train: %d", pr.StatusCode)
	}
	var pred struct {
		Y      [][]float64 `json:"y"`
		Labels []int       `json:"labels"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	if len(pred.Y) != 1 || len(pred.Y[0]) != 2 || len(pred.Labels) != 1 {
		t.Fatalf("prediction shape %+v", pred)
	}

	// The jobs listing is visible on the combined mux too.
	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	var listing struct {
		Jobs []TrainingJob `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].Name != "susy-http" {
		t.Fatalf("listing %+v", listing)
	}
}

// TestSubmitTrainingPublicAPI exercises the library-level loop:
// SubmitTraining → JobStatus → Wait → served prediction, plus cancel and
// bit-exact resume through the public Trainer surface.
func TestSubmitTrainingPublicAPI(t *testing.T) {
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	mgr := NewTrainingManager(TrainingConfig{Workers: 1, Registrar: srv})
	defer mgr.Close()

	ds := SUSYLike(240, 5)
	spec := TrainingSpec{
		Name: "susy",
		Config: Config{
			Kernel: GaussianKernel(3),
			Epochs: 3,
			S:      64,
			Seed:   5,
		},
		X: ds.X,
		Y: ds.Y,
	}
	id, err := SubmitTraining(mgr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info, ok := JobStatus(mgr, id); !ok || info.Name != "susy" {
		t.Fatalf("JobStatus: %v %+v", ok, info)
	}
	info, err := mgr.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != JobDone || !info.Servable {
		t.Fatalf("job %+v", info)
	}
	if _, ok := srv.Model("susy"); !ok {
		t.Fatal("trained model not auto-registered")
	}

	// Public checkpoint surface: step two epochs, checkpoint, resume,
	// finish, and match the job-trained coefficients bit for bit.
	tr, err := NewTrainer(spec.Config, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeTrainer(&buf, Config{}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	for !resumed.Done() {
		if _, err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := mgr.Model(id)
	got := resumed.Result().Model
	for i, v := range got.Alpha.Data {
		if v != want.Alpha.Data[i] {
			t.Fatalf("coefficient %d differs: %v != %v", i, v, want.Alpha.Data[i])
		}
	}
}
