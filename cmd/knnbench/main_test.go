package main

import (
	"strings"
	"testing"
)

func TestSelectExperimentsAllFigures(t *testing.T) {
	exps, err := selectExperiments("")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 8 {
		t.Fatalf("default selection has %d experiments, want the 8 figures", len(exps))
	}
}

// TestSelectExperimentsAblations pins which ablations knnbench still runs:
// the two about the paper's algorithms resolve, and a deleted systems
// ablation is an unknown-experiment error naming the survivors.
func TestSelectExperimentsAblations(t *testing.T) {
	exps, err := selectExperiments("abl-preprocess,abl-index")
	if err != nil || len(exps) != 2 {
		t.Fatalf("selection = %v, %v", exps, err)
	}
	_, err = selectExperiments("abl-shards")
	if err == nil {
		t.Fatal("abl-shards was deleted and must not resolve")
	}
	for _, want := range []string{"unknown experiment", "fig19", "fig26", "abl-preprocess", "abl-index"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error should contain %q, got %v", want, err)
		}
	}
}

func TestSelectExperimentsByNumber(t *testing.T) {
	exps, err := selectExperiments("19, 26")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].ID != "fig19" || exps[1].ID != "fig26" {
		t.Fatalf("selection = %v", exps)
	}
}

func TestSelectExperimentsMixed(t *testing.T) {
	exps, err := selectExperiments("fig22,abl-index")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[1].ID != "abl-index" {
		t.Fatalf("selection = %v", exps)
	}
}

func TestSelectExperimentsUnknown(t *testing.T) {
	_, err := selectExperiments("99")
	if err == nil {
		t.Fatal("unknown figure must error")
	}
	if !strings.Contains(err.Error(), "fig19") {
		t.Errorf("error should list known experiments, got %v", err)
	}
}

func TestSelectExperimentsEmptyTokens(t *testing.T) {
	if _, err := selectExperiments(",,"); err == nil {
		t.Fatal("empty selection must error")
	}
}
