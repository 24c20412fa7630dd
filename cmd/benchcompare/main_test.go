package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport writes a one-cell sagivbench report and returns its path.
func writeReport(t *testing.T, name string, gomaxprocs int, opsPerSec string) string {
	t.Helper()
	doc := map[string]any{
		"go": "go1.24.0", "gomaxprocs": gomaxprocs, "scale": 0.02,
		"experiments": []any{map[string]any{
			"id": "E1",
			"tables": []any{map[string]any{
				"title":   "E1: throughput (ops/s)",
				"headers": []string{"impl", "w=1"},
				"rows":    [][]string{{"sagiv", opsPerSec}},
			}},
		}},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRefusesGOMAXPROCSMismatch(t *testing.T) {
	base := writeReport(t, "base.json", 1, "1000")
	latest := writeReport(t, "latest.json", 2, "1000")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-baseline", base, "-latest", latest}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "GOMAXPROCS differs (baseline 1, latest 2)") {
		t.Fatalf("stderr does not name the mismatch:\n%s", stderr.String())
	}
}

func TestGate(t *testing.T) {
	base := writeReport(t, "base.json", 1, "1000")
	for _, tc := range []struct {
		latest string
		want   int
	}{
		{"900", 0}, // -10%: inside the 15% threshold
		{"800", 1}, // -20%: a regression
	} {
		latest := writeReport(t, "latest.json", 1, tc.latest)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-baseline", base, "-latest", latest}, &stdout, &stderr); code != tc.want {
			t.Errorf("latest %s ops/s: exit %d, want %d; stdout:\n%s\nstderr:\n%s", tc.latest, code, tc.want, stdout.String(), stderr.String())
		}
	}
}
