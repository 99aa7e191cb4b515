package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/relation"
)

// TestRepeatedKeySuspectParity is the A2 attack at its smallest: a
// marked suspect with one fit row appended twice more, and one with a
// second, conflicting row under a fit row's key. Every verify path reads
// the suspect as a multiset of rows and must report the same primary
// channel: Record.VerifyWith over ReadCSV, core.VerifyBatch over the
// block reader, /v1/verify with a JSON body and with a CSV body, a
// /v2/jobs verify_batch, and the same job on a 2-worker cluster.
func TestRepeatedKeySuspectParity(t *testing.T) {
	srv, ts := newClusterCoordinator(t, 500)
	csv, domain := testCSV(t, 6000)
	id, marked := watermarkFixture(t, ts, "repeat-owner", csv, domain)
	rec, err := srv.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relation.ParseSchemaSpec(testSchemaSpec)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(data string) core.Report {
		t.Helper()
		rel, err := relation.ReadCSV(strings.NewReader(data), schema)
		if err != nil {
			t.Fatalf("ReadCSV: %v", err)
		}
		rep, err := rec.VerifyWith(rel, core.VerifyOptions{Workers: 2})
		if err != nil {
			t.Fatalf("VerifyWith: %v", err)
		}
		return rep
	}
	base := verify(marked)
	lines := strings.SplitAfter(strings.TrimSuffix(marked, "\n"), "\n")
	lines[len(lines)-1] += "\n"

	// The first data row whose copy adds a vote: a fit row.
	fit := ""
	for _, line := range lines[1:] {
		if verify(marked+line).Primary.Fit > base.Primary.Fit {
			fit = line
			break
		}
	}
	if fit == "" {
		t.Fatal("no fit row found")
	}
	key, item, _ := strings.Cut(strings.TrimSuffix(fit, "\n"), ",")
	other := domain[0]
	if other == item {
		other = domain[1]
	}
	suspects := []struct {
		name, data string
		votes      int // fit rows beyond the marked copy's
	}{
		{"repeated row", marked + fit + fit, 2},
		{"conflicting row", marked + key + "," + other + "\n", 1},
	}
	type result struct{ Match, Detected, Verdict string }
	resultOf := func(match float64, detected, verdict string) result {
		return result{fmt.Sprint(match), detected, verdict}
	}

	local := make([]api.Job, len(suspects))
	for i, s := range suspects {
		want := verify(s.data)
		if want.Primary.Fit != base.Primary.Fit+s.votes || want.Primary.Tuples != base.Primary.Tuples+s.votes {
			t.Fatalf("%s: %d fit of %d rows, want %d of %d", s.name, want.Primary.Fit, want.Primary.Tuples,
				base.Primary.Fit+s.votes, base.Primary.Tuples+s.votes)
		}
		if s.name == "repeated row" && verdictFor(want.Match) != api.VerdictPresent {
			t.Fatalf("%s: match %v, want present", s.name, want.Match)
		}
		wantRes := resultOf(want.Match, want.Detected, verdictFor(want.Match))

		src, err := relation.NewCSVBlockReader(strings.NewReader(s.data), schema)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := core.VerifyBatch(context.Background(), []*core.Record{rec}, src, core.BatchOptions{Workers: 2})
		if err != nil || batch[0].Err != nil {
			t.Fatalf("%s: VerifyBatch: %v, %v", s.name, err, batch[0].Err)
		}
		if got := batch[0].Report; !reflect.DeepEqual(got.Primary, want.Primary) || got.Match != want.Match || got.Detected != want.Detected {
			t.Fatalf("%s: VerifyBatch %+v, VerifyWith %+v", s.name, got, want)
		}

		var jsonResp api.VerifyResponse
		if status := postJSON(t, ts.URL+"/v1/verify", api.VerifyRequest{ID: id, Schema: testSchemaSpec, Data: s.data}, &jsonResp); status != http.StatusOK {
			t.Fatalf("%s: JSON verify status %d: %+v", s.name, status, jsonResp)
		}
		var csvResp api.VerifyResponse
		u := ts.URL + "/v1/verify?id=" + id + "&schema=" + url.QueryEscape(testSchemaSpec)
		if status := postRaw(t, u, api.ContentTypeCSV, s.data, &csvResp); status != http.StatusOK {
			t.Fatalf("%s: CSV verify status %d: %+v", s.name, status, csvResp)
		}
		local[i] = runBatchJob(t, ts.URL, "csv", s.data)
		if local[i].State != api.JobDone || local[i].VerifyBatch == nil {
			t.Fatalf("%s: job %s (%+v)", s.name, local[i].State, local[i].Error)
		}
		jobRes := local[i].VerifyBatch.Results[0]
		for path, got := range map[string]result{
			"JSON verify": resultOf(jsonResp.Match, jsonResp.Detected, jsonResp.Verdict),
			"CSV verify":  resultOf(csvResp.Match, csvResp.Detected, csvResp.Verdict),
			"job":         resultOf(jobRes.Match, jobRes.Detected, jobRes.Verdict),
		} {
			if got != wantRes {
				t.Fatalf("%s: %s %+v, VerifyWith %+v", s.name, path, got, wantRes)
			}
		}
		if local[i].VerifyBatch.Tuples != want.Primary.Tuples {
			t.Fatalf("%s: job scanned %d tuples, want %d", s.name, local[i].VerifyBatch.Tuples, want.Primary.Tuples)
		}
	}

	newClusterWorker(t, srv, "w0", 2, nil)
	newClusterWorker(t, srv, "w1", 2, nil)
	for i, s := range suspects {
		got := runBatchJob(t, ts.URL, "csv", s.data)
		if got.State != api.JobDone || !reflect.DeepEqual(got.VerifyBatch, local[i].VerifyBatch) {
			t.Fatalf("%s: cluster job %s %+v, local %+v", s.name, got.State, got.VerifyBatch, local[i].VerifyBatch)
		}
	}
	if n := srv.Coordinator().LiveWorkers(); n != 2 {
		t.Fatalf("%d live workers, want 2", n)
	}
}
