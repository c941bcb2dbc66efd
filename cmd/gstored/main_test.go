package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"gstored"
	"gstored/internal/server"
)

// crossing is CI's smoke query: advisor → worksFor ← memberOf, a path
// that crosses fragments, so every stage of the pipeline runs.
const crossing = `SELECT ?x ?y ?z ?w WHERE {
	?x <http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?y .
	?y <http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor> ?z .
	?w <http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf> ?z }`

// TestQueryAnswersAsTheServer pins the one-shot command's contract: its
// stdout is byte for byte the server's format=tsv answer for the same
// query over the same database, and its stderr is the ExplainReport of
// that one execution.
func TestQueryAnswersAsTheServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "lubm", "-scale", "1", "-sites", "4", "-query", crossing}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	db, err := gstored.Open(gstored.GenerateLUBM(1).Graph, gstored.Config{Sites: 4, Strategy: "hash", Mode: gstored.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := httptest.NewServer(server.New(db, server.Config{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/sparql?format=tsv&query=" + url.QueryEscape(crossing))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server: %s: %s", resp.Status, served)
	}
	if !bytes.Equal(stdout.Bytes(), served) {
		t.Errorf("stdout differs from the served TSV:\n got %q\nwant %q", stdout.String(), served)
	}

	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if lines[0] != "?x\t?y\t?z\t?w" || len(lines) < 2 {
		t.Fatalf("stdout: header %q and %d data lines", lines[0], len(lines)-1)
	}
	var rep server.ExplainReport
	dec := json.NewDecoder(&stderr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("stderr is not an ExplainReport: %v", err)
	}
	if dec.More() {
		t.Error("stderr holds more than one report")
	}
	if rep.Rows != len(lines)-1 {
		t.Errorf("report rows = %d, stdout has %d data lines", rep.Rows, len(lines)-1)
	}
	if len(rep.Stages) != 4 || len(rep.Trace) == 0 {
		t.Errorf("report has %d stages and %d spans, want 4 and some", len(rep.Stages), len(rep.Trace))
	}
	if rep.Delivery != "ordered" || rep.Cache.Disposition != "disabled" {
		t.Errorf("report delivery %q, cache %q; want ordered, disabled", rep.Delivery, rep.Cache.Disposition)
	}
}

// TestQueryRejectsPositionalArguments: a stray word — a misspelt or
// retired subcommand — is a usage error naming it, not a report that
// some flag is missing because flag parsing stopped there.
func TestQueryRejectsPositionalArguments(t *testing.T) {
	for _, tc := range []struct {
		word string
		args []string
	}{
		{"explain", []string{"explain", "-dataset", "lubm", "-query", "x"}},
		{"foo", []string{"-dataset", "lubm", "foo", "-query", "x"}},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if !errors.As(err, new(usageError)) {
			t.Fatalf("%q: err = %v, want a usage error", tc.args, err)
		}
		for _, want := range []string{`"` + tc.word + `"`, "serve", "worker"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q: error %q does not name %s", tc.args, err, want)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", tc.args, stdout.String())
		}
	}
}
