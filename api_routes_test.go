package eigenpro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// route is one "METHOD /path" pair from a doc comment.
type route struct{ method, path string }

var routeRE = regexp.MustCompile(`\b(GET|POST|PUT|DELETE) (/[^\s,]*)`)

// documentedRoutes returns the distinct routes named in the doc comment of
// the facade function fn, in order of first mention.
func documentedRoutes(t *testing.T, fn string) []route {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "eigenpro.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var routes []route
	seen := map[route]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn || fd.Doc == nil {
			continue
		}
		for _, m := range routeRE.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			r := route{m[1], m[2]}
			if !seen[r] {
				seen[r] = true
				routes = append(routes, r)
			}
		}
	}
	return routes
}

// TestTrainServeRoutes walks every route NewTrainServeHandler's doc comment
// lists, on a process with no SLO evaluator: none may 404, and /debug/slo
// and /debug/flight serve their empty payloads.
func TestTrainServeRoutes(t *testing.T) {
	routes := documentedRoutes(t, "NewTrainServeHandler")
	documented := map[string]bool{}
	for _, r := range routes {
		documented[r.path] = true
	}
	for _, p := range []string{"/metrics", "/debug/traces", "/debug/events", "/debug/slo", "/debug/flight", "/healthz", "/readyz"} {
		if !documented[p] {
			t.Fatalf("NewTrainServeHandler's doc comment does not list %s (found %v)", p, routes)
		}
	}
	// DELETE goes last: it evicts the job the other /jobs/{id} routes
	// address.
	sort.SliceStable(routes, func(i, j int) bool {
		return routes[i].method != http.MethodDelete && routes[j].method == http.MethodDelete
	})

	ds := SUSYLike(120, 5)
	res, err := Train(Config{Kernel: GaussianKernel(3), Epochs: 1, Seed: 5}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := SaveModel(&model, res.Model); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	if err := srv.Register("default", res.Model); err != nil {
		t.Fatal(err)
	}
	mgr := NewTrainingManager(TrainingConfig{Workers: 1, Registrar: srv})
	defer mgr.Close()
	ts := httptest.NewServer(NewTrainServeHandler(srv, mgr))
	defer ts.Close()

	x, _ := json.Marshal(ds.X.RowView(0))
	bodies := map[route][]byte{
		{"POST", "/train"}:           []byte(`{"name":"walk","dataset":"susy","n":64,"epochs":1}`),
		{"POST", "/v1/predict"}:      []byte(`{"x":` + string(x) + `}`),
		{"PUT", "/v1/models/{name}"}: model.Bytes(),
	}
	jobID := ""
	for _, r := range routes {
		if strings.Contains(r.path, "{id}") && jobID == "" {
			t.Fatalf("%s %s walked before POST /train gave a job id", r.method, r.path)
		}
		path := strings.NewReplacer("{id}", jobID, "{name}", "walk").Replace(r.path)
		req, err := http.NewRequest(r.method, ts.URL+path, bytes.NewReader(bodies[r]))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("%s %s = 404: %s", r.method, path, body)
		}
		switch r.path {
		case "/train":
			var job TrainingJob
			if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
				t.Fatalf("POST /train: %d %s", resp.StatusCode, body)
			}
			jobID = job.ID
		case "/debug/slo":
			if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"objectives":[]`)) {
				t.Errorf("GET /debug/slo without an evaluator: %d %s", resp.StatusCode, body)
			}
		case "/debug/flight":
			if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"snapshots":[]`)) {
				t.Errorf("GET /debug/flight without a recorder: %d %s", resp.StatusCode, body)
			}
		}
	}
}
