package main

import (
	"encoding/json"
	"testing"
)

// TestArtifactSchemaVersion pins the BENCH artifact version: bump
// benchSchema (and this test) whenever a field is added, so downstream
// trajectory tooling can dispatch on it.
func TestArtifactSchemaVersion(t *testing.T) {
	if benchSchema != 8 {
		t.Fatalf("benchSchema = %d, want 8 (update the schema history comment and this pin together)", benchSchema)
	}
	if got := newArtifact(config{repeats: 3}).Schema; got != benchSchema {
		t.Fatalf("newArtifact schema = %d, want %d", got, benchSchema)
	}
}

// TestArtifactSchema3Compat: a schema-3 BENCH file (no speedup rows) must
// still unmarshal into the current artifact struct — the fields through
// schema 3 are append-only, and the schema-4 Speedup field stays empty.
func TestArtifactSchema3Compat(t *testing.T) {
	const schema3 = `{
  "schema": 3,
  "strategy": "auto",
  "gomaxprocs": 4,
  "numcpu": 4,
  "go_version": "go1.22.0",
  "repeats": 5,
  "runs": [
    {
      "name": "matmult",
      "threads": 4,
      "elapsed_ns": 12345678,
      "steps": 3,
      "total_fired": 9216,
      "fire_batches": 12,
      "mean_fire_chunk": 768.0,
      "ns_per_firing": 1339.5,
      "batch_hist": {"512-1023": 12},
      "fire_ns": 9000000,
      "insert_ns": 2000000,
      "merge_ns": 800000,
      "delta_ns": 500000,
      "boundary_frac": 0.27,
      "tables": [
        {"table": "Matrix", "kind": "dense3d:3,96,96", "puts": 18432, "dups": 0, "queries": 884736}
      ]
    }
  ],
  "step_boundary": [
    {"threads": 1, "batch": 1024, "elapsed_ns": 1000000, "ns_per_tuple": 488.0,
     "fire_ns": 300000, "insert_ns": 300000, "merge_ns": 200000, "delta_ns": 200000,
     "boundary_frac": 0.7}
  ]
}`
	var art smokeArtifact
	if err := json.Unmarshal([]byte(schema3), &art); err != nil {
		t.Fatalf("schema-3 artifact no longer parses: %v", err)
	}
	if art.Schema != 3 || len(art.Runs) != 1 || art.Runs[0].Name != "matmult" {
		t.Fatalf("schema-3 fields misparsed: %+v", art)
	}
	if art.Runs[0].BoundaryFrac != 0.27 || len(art.StepBoundary) != 1 {
		t.Fatalf("schema-3 phase fields misparsed: %+v", art)
	}
	if len(art.Speedup) != 0 {
		t.Fatalf("schema-3 artifact grew speedup rows: %+v", art.Speedup)
	}
}

// TestArtifactSchema4Compat: a schema-4 BENCH file (speedup rows, no
// adaptive report) must still unmarshal into the current artifact struct —
// the fields through schema 4 are append-only, and the schema-5 Adaptive
// field stays nil.
func TestArtifactSchema4Compat(t *testing.T) {
	const schema4 = `{
  "schema": 4,
  "strategy": "auto",
  "gomaxprocs": 4,
  "numcpu": 4,
  "go_version": "go1.22.0",
  "repeats": 5,
  "runs": [],
  "step_boundary": [],
  "speedup": [
    {"name": "dispatch", "strategy": "forkjoin", "gomaxprocs": 4, "threads": 4,
     "elapsed_ns": 1000000, "speedup": 2.5}
  ]
}`
	var art smokeArtifact
	if err := json.Unmarshal([]byte(schema4), &art); err != nil {
		t.Fatalf("schema-4 artifact no longer parses: %v", err)
	}
	if art.Schema != 4 || len(art.Speedup) != 1 || art.Speedup[0].Speedup != 2.5 {
		t.Fatalf("schema-4 fields misparsed: %+v", art)
	}
	if art.Adaptive != nil {
		t.Fatalf("schema-4 artifact grew an adaptive report: %+v", art.Adaptive)
	}
}

// TestArtifactSchema5Compat: a schema-5 BENCH file (adaptive report, no
// serve report) must still unmarshal into the current artifact struct —
// the fields through schema 5 are append-only, and the schema-6 Serve
// field stays nil.
func TestArtifactSchema5Compat(t *testing.T) {
	const schema5 = `{
  "schema": 5,
  "strategy": "auto",
  "gomaxprocs": 4,
  "numcpu": 4,
  "go_version": "go1.22.0",
  "repeats": 5,
  "runs": [],
  "step_boundary": [],
  "adaptive": {
    "keys": 20000,
    "ingest_windows": 4,
    "probe_windows": 4,
    "probes_per_window": 2000,
    "replan_every": 2,
    "frozen_kind": "columnar",
    "adaptive_kind": "inthash:1",
    "kind_after_ingest": "columnar",
    "frozen_probe_ns": [1000, 1100],
    "adaptive_probe_ns": [400, 500],
    "frozen_mean_ns": 1050,
    "adaptive_mean_ns": 450,
    "speedup": 2.33,
    "migrations": [
      {"table": "Reading", "from": "columnar", "to": "inthash:1",
       "quiesce": 5, "tuples": 20000, "nanos": 900000}
    ],
    "strategy_switches": 0,
    "converge_quiesce": 5
  }
}`
	var art smokeArtifact
	if err := json.Unmarshal([]byte(schema5), &art); err != nil {
		t.Fatalf("schema-5 artifact no longer parses: %v", err)
	}
	if art.Schema != 5 || art.Adaptive == nil || art.Adaptive.Speedup != 2.33 {
		t.Fatalf("schema-5 fields misparsed: %+v", art)
	}
	if len(art.Adaptive.Migrations) != 1 || art.Adaptive.Migrations[0].To != "inthash:1" {
		t.Fatalf("schema-5 migrations misparsed: %+v", art.Adaptive.Migrations)
	}
	if art.Serve != nil {
		t.Fatalf("schema-5 artifact grew a serve report: %+v", art.Serve)
	}
}

// TestArtifactSchema6Compat: a schema-6 BENCH file (serve report, no
// procs ladder) must still unmarshal into the current artifact struct —
// the fields through schema 6 are append-only; ProcsLadder stays nil.
func TestArtifactSchema6Compat(t *testing.T) {
	const schema6 = `{
  "schema": 6,
  "strategy": "auto",
  "gomaxprocs": 4,
  "numcpu": 4,
  "go_version": "go1.22.0",
  "repeats": 5,
  "runs": [],
  "step_boundary": [],
  "speedup": [
    {"name": "dispatch", "strategy": "forkjoin", "gomaxprocs": 4, "threads": 4,
     "elapsed_ns": 1000000, "speedup": 2.5}
  ],
  "serve": {
    "clients": 4, "batches": 25, "batch_rows": 64, "tuples": 6400,
    "requests": 120, "notifications": 100,
    "ingest": {"count": 100, "mean_nanos": 1000, "p50_nanos": 900,
               "p99_nanos": 2000, "p999_nanos": 3000, "max_nanos": 4000},
    "visibility": {"count": 100, "mean_nanos": 2000, "p50_nanos": 1800,
                   "p99_nanos": 4000, "p999_nanos": 6000, "max_nanos": 8000}
  }
}`
	var art smokeArtifact
	if err := json.Unmarshal([]byte(schema6), &art); err != nil {
		t.Fatalf("schema-6 artifact no longer parses: %v", err)
	}
	if art.Schema != 6 || art.Serve == nil || len(art.Speedup) != 1 {
		t.Fatalf("schema-6 fields misparsed: %+v", art)
	}
	if art.ProcsLadder != nil {
		t.Fatalf("schema-6 artifact grew a procs ladder: %v", art.ProcsLadder)
	}
}

// TestArtifactSchema7Compat: a schema-7 BENCH file (a procs ladder, no
// durability report; its speedup rows may carry the "affinity" key of the
// deleted table-affinity sweep, which is ignored) must still unmarshal into
// the current artifact struct, and the schema-8 Durability field stays nil.
func TestArtifactSchema7Compat(t *testing.T) {
	const schema7 = `{
  "schema": 7,
  "strategy": "auto",
  "gomaxprocs": 4,
  "numcpu": 4,
  "procs_ladder": [1, 2, 4],
  "go_version": "go1.22.0",
  "repeats": 5,
  "runs": [],
  "step_boundary": [],
  "speedup": [
    {"name": "dispatch", "strategy": "forkjoin", "gomaxprocs": 4, "threads": 4,
     "elapsed_ns": 1000000, "speedup": 2.5, "affinity": true}
  ]
}`
	var art smokeArtifact
	if err := json.Unmarshal([]byte(schema7), &art); err != nil {
		t.Fatalf("schema-7 artifact no longer parses: %v", err)
	}
	if art.Schema != 7 || len(art.ProcsLadder) != 3 || len(art.Speedup) != 1 {
		t.Fatalf("schema-7 fields misparsed: %+v", art)
	}
	if art.Durability != nil {
		t.Fatalf("schema-7 artifact grew a durability report: %+v", art.Durability)
	}
}

// TestServeLoadSmoke runs the load generator end to end against an
// in-process loopback server with a tiny workload, checking the artifact
// section and that every gate passes.
func TestServeLoadSmoke(t *testing.T) {
	art := newArtifact(config{repeats: 1})
	failures := serveLoadRun(art, "", 2, 3, 8)
	if len(failures) != 0 {
		t.Fatalf("serve-load gates failed: %v", failures)
	}
	if art.Serve == nil {
		t.Fatal("no serve report recorded")
	}
	rep := art.Serve
	if rep.Tuples != 2*3*8 {
		t.Errorf("tuples = %d, want %d", rep.Tuples, 2*3*8)
	}
	if rep.Requests == 0 || rep.Notifications == 0 {
		t.Errorf("requests=%d notifications=%d, want non-zero", rep.Requests, rep.Notifications)
	}
	if rep.Ingest.Count != 2*3 || rep.Visibility.Count != 2*3 {
		t.Errorf("histogram counts ingest=%d visibility=%d, want %d", rep.Ingest.Count, rep.Visibility.Count, 2*3)
	}
	if rep.Visibility.P50Nanos < rep.Ingest.P50Nanos {
		t.Errorf("visibility p50 %d < ingest p50 %d: visibility covers ingest", rep.Visibility.P50Nanos, rep.Ingest.P50Nanos)
	}
	if data, err := json.Marshal(art); err != nil || !json.Valid(data) {
		t.Fatalf("artifact with serve report does not marshal: %v", err)
	}
}

// TestParseProcs covers the -procs flag parser.
func TestParseProcs(t *testing.T) {
	got, err := parseProcs("1, 2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("parseProcs(\"1, 2,4\") = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "1,x", "-2"} {
		if _, err := parseProcs(bad); err == nil {
			t.Errorf("parseProcs(%q) accepted", bad)
		}
	}
}
