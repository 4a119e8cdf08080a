package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dnssecboot/internal/ecosystem"
)

// worldDigest renders everything the scan workloads read from a
// generated world: the target list and every zone's ground truth.
func worldDigest(t *testing.T, seed int64) string {
	t.Helper()
	w, err := ecosystem.Generate(ecosystem.Config{Seed: seed, ScaleDivisor: 500000})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, w.Targets)
	names := make([]string, 0, len(w.Truth))
	for n := range w.Truth {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s %+v\n", n, w.Truth[n].Operator, w.Truth[n].Spec)
	}
	return b.String()
}

func TestWorldIsAFunctionOfTheSeed(t *testing.T) {
	a, b := worldDigest(t, 1), worldDigest(t, 1)
	if a != b {
		t.Fatal("two worlds generated from seed 1 differ")
	}
	if a == worldDigest(t, 2) {
		t.Fatal("seeds 1 and 2 generate the same world")
	}
}

func TestServeInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, b := buildServeZone(1), buildServeZone(1)
	if !bytes.Equal(a.text, b.text) || !reflect.DeepEqual(a.names, b.names) {
		t.Fatal("two serve zones generated from seed 1 differ")
	}
	if bytes.Equal(a.text, buildServeZone(2).text) {
		t.Fatal("seeds 1 and 2 generate the same serve zone")
	}
	if !reflect.DeepEqual(a.queries(1, 3, 500), b.queries(1, 3, 500)) {
		t.Fatal("two query mixes drawn for seed 1, stream 3 differ")
	}
	if reflect.DeepEqual(a.queries(1, 3, 500), a.queries(1, 4, 500)) {
		t.Fatal("streams 3 and 4 draw the same queries")
	}
}

func TestIngestDumpIsAFunctionOfTheSeed(t *testing.T) {
	dir := t.TempDir()
	read := func(name string, seed int64) ([]byte, dumpTruth) {
		p := filepath.Join(dir, name)
		truth, err := writeDumpFile(p, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b, truth
	}
	a, ta := read("a.gz", 1)
	b, tb := read("b.gz", 1)
	if !bytes.Equal(a, b) || !reflect.DeepEqual(ta, tb) {
		t.Fatal("two gzipped dumps written from seed 1 differ")
	}
	if c, _ := read("c.gz", 2); bytes.Equal(a, c) {
		t.Fatal("seeds 1 and 2 write the same dump")
	}
}

// TestIngestMatchesThePlantedTruth runs the ingest gate once on the
// full dump: every skip reason is planted and every count matches.
func TestIngestMatchesThePlantedTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 600k records")
	}
	p := filepath.Join(t.TempDir(), "uk.zone.gz")
	truth, err := writeDumpFile(p, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range skipReasons {
		if truth.skipped[r] == 0 {
			t.Errorf("dump plants no %s skip", r)
		}
	}
	pass, err := ingestOnce(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	checkIngest(out, 0, pass, truth)
	if !out.correct || out.failed != 0 {
		t.Fatalf("ingest does not match the planted truth: %v", out.detail["failures"])
	}
}
