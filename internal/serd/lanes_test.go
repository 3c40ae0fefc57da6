// Wire-level tests for the analysis request knobs: the deprecated
// lane_words field must be accepted and ignored, the Approx block must
// round-trip with a sane interval, invalid combinations must be
// rejected, and Approx jobs must surface on /metrics (JSON and
// Prometheus exposition alike).
package serd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"testing"

	"repro/internal/promtext"
	"repro/serclient"
)

// elapsedRE matches the wall-clock elapsed_ms field, the one part of a
// response body that legitimately varies between identical requests.
var elapsedRE = regexp.MustCompile(`"elapsed_ms":[-+.0-9eE]+`)

// TestAnalyzeLaneWordsWire checks that older clients still sending
// lane_words get exactly the response they would get without it, on
// every endpoint that used to accept the field and on the sequential
// flow.
func TestAnalyzeLaneWordsWire(t *testing.T) {
	url, _ := rawTestServer(t, Config{Workers: 2})
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body, resp.StatusCode, b)
		}
		return elapsedRE.ReplaceAll(b, []byte(`"elapsed_ms":0`))
	}
	for _, tc := range []struct{ path, fields string }{
		{"/v1/analyze", `"circuit":"c432","vectors":800,"seed":3`},
		{"/v1/susceptibility", `"circuit":"c432","vectors":800,"seed":3,"top":5`},
		{"/v1/optimize", `"circuit":"c17","vectors":500,"seed":2,"iterations":2,"max_basis":4`},
		{"/v1/analyze", `"circuit":"s27","cycles":4,"vectors":600,"seed":5`},
	} {
		want := post(tc.path, "{"+tc.fields+"}")
		for _, w := range []int{1, 4, 8} {
			got := post(tc.path, fmt.Sprintf(`{%s,"lane_words":%d}`, tc.fields, w))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s {%s} lane_words=%d:\n got %s\nwant %s", tc.path, tc.fields, w, got, want)
			}
		}
	}
}

func TestAnalyzeApproxWire(t *testing.T) {
	url, cl := rawTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	exact, err := cl.Analyze(ctx, serclient.AnalyzeRequest{Circuit: "c432", Vectors: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Analyze(ctx, serclient.AnalyzeRequest{
		Circuit: "c432", Seed: 3,
		Approx: &serclient.ApproxRequest{RelErr: 0.05, BatchVectors: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := resp.Approx
	if a == nil {
		t.Fatal("approx response missing approx block")
	}
	if a.Batches < 4 || a.VectorsUsed != a.Batches*1000 || a.Confidence != 0.95 {
		t.Fatalf("approx block malformed: %+v", a)
	}
	if !(a.UCILow < resp.U && resp.U < a.UCIHigh) {
		t.Fatalf("interval [%v, %v] does not contain mean %v", a.UCILow, a.UCIHigh, resp.U)
	}
	if exact.U < a.UCILow || exact.U > a.UCIHigh {
		t.Fatalf("exact U %v outside CI [%v, %v]", exact.U, a.UCILow, a.UCIHigh)
	}

	// Approx is combinational-only: the sequential flow must reject it
	// at validation time, not fall back silently.
	_, err = cl.Analyze(ctx, serclient.AnalyzeRequest{
		Circuit: "s27", Cycles: 4, Vectors: 600,
		Approx: &serclient.ApproxRequest{},
	})
	if err == nil {
		t.Fatal("sequential approx request accepted")
	}

	// Approx jobs must be visible to operators: the JSON snapshot and
	// the Prometheus exposition.
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.ApproxJobs == 0 {
		t.Fatal("approx_jobs counter not incremented")
	}
	hr, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	fams, err := promtext.Parse(string(doc))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	fam := fams["serd_approx_jobs_total"]
	if fam == nil || len(fam.Samples) == 0 || fam.Samples[0].Value == 0 {
		t.Fatal("family serd_approx_jobs_total missing or zero in exposition")
	}
}
