package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestDatasetRoundTrip(t *testing.T) {
	ds := collectSmall(t, "GTX 480")
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Board != ds.Board || got.Samples != ds.Samples || len(got.Rows) != len(ds.Rows) {
		t.Fatalf("metadata mismatch: %s/%d/%d vs %s/%d/%d",
			got.Board, got.Samples, len(got.Rows), ds.Board, ds.Samples, len(ds.Rows))
	}
	for i := range ds.Rows {
		if got.Rows[i].PowerW != ds.Rows[i].PowerW || got.Rows[i].TimeS != ds.Rows[i].TimeS {
			t.Fatalf("row %d differs after round trip", i)
		}
	}
	// A model trained on the loaded dataset behaves identically.
	m1, err := Train(ds, Power, 5)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(got, Power, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m1.AdjR2() != m2.AdjR2() {
		t.Errorf("training diverged after round trip: %g vs %g", m1.AdjR2(), m2.AdjR2())
	}
}

func TestModelRoundTripPredictsIdentically(t *testing.T) {
	ds := collectSmall(t, "GTX 680")
	m, err := Train(ds, Time, MaxVariables)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != Time || loaded.Board != m.Board {
		t.Fatalf("metadata mismatch: %v %q", loaded.Kind, loaded.Board)
	}
	for i := range ds.Rows {
		a, b := m.Predict(&ds.Rows[i]), loaded.Predict(&ds.Rows[i])
		if a != b {
			t.Fatalf("row %d: prediction %g != %g after round trip", i, a, b)
		}
	}
}

func TestNaiveFlagSurvivesRoundTrip(t *testing.T) {
	ds := collectSmall(t, "GTX 460")
	m, err := TrainNaive(context.Background(), ds, Power, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	o := ds.Rows[3]
	if got, want := loaded.Predict(&o), m.Predict(&o); got != want {
		t.Errorf("naive prediction %g != %g after round trip", got, want)
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	ds := collectSmall(t, "GTX 480")
	m, _ := Train(ds, Power, 5)

	cases := map[string]func() string{
		"garbage": func() string { return "{not json" },
		"bad version": func() string {
			var buf bytes.Buffer
			_ = m.Save(&buf)
			return strings.Replace(buf.String(), `"version":1`, `"version":9`, 1)
		},
		"unknown board": func() string {
			var buf bytes.Buffer
			_ = m.Save(&buf)
			return strings.Replace(buf.String(), "GTX 480", "GTX 999", 1)
		},
		"unknown kind": func() string {
			var buf bytes.Buffer
			_ = m.Save(&buf)
			return strings.Replace(buf.String(), `"kind":"power"`, `"kind":"entropy"`, 1)
		},
		"renamed counter": func() string {
			var buf bytes.Buffer
			_ = m.Save(&buf)
			return strings.Replace(buf.String(), "inst_executed", "inst_exekuted", 1)
		},
	}
	for name, build := range cases {
		if _, err := ReadModel(strings.NewReader(build())); err == nil {
			t.Errorf("ReadModel accepted %s", name)
		}
	}
	if _, err := ReadDataset(strings.NewReader("{not json")); err == nil {
		t.Error("ReadDataset accepted garbage")
	}
}

func TestRadeonDatasetRoundTrip(t *testing.T) {
	// The future-work board persists too (it is resolved specially since
	// it is not in the paper's board set).
	rds := collectRadeonTiny(t)
	var buf bytes.Buffer
	if err := rds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Board != rds.Board || len(got.Rows) != len(rds.Rows) {
		t.Error("Radeon dataset round trip lost data")
	}
}
