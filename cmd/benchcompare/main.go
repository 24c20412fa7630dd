// Command benchcompare gates E-series performance regressions: it
// compares two sagivbench -json reports and exits non-zero when any
// throughput cell in the latest run falls more than a threshold below
// the committed baseline, or any allocation cell rises more than a
// threshold above it.
//
// Usage:
//
//	benchcompare -baseline BENCH_baseline.json -latest results.json
//
// The throughput threshold is -max-regression-pct, overridable with
// the BENCH_MAX_REGRESSION_PCT environment variable (default 15 —
// E-series runs at CI scale are noisy; the gate is for cliffs, not
// jitter). The allocation threshold is -max-alloc-regression-pct /
// BENCH_MAX_ALLOC_REGRESSION_PCT (default 15, plus one absolute
// alloc/op of slack so near-zero baselines don't trip on a single
// stray allocation).
//
// What counts as a throughput cell: a numeric cell whose column header
// contains "ops/s", or any numeric non-config cell of a table whose
// title announces ops/s. An allocation cell is one whose column
// header contains "allocs/op" (B/op columns ride along informationally
// but are not gated — bytes track allocs). Cells are matched by
// (experiment, table title, first cell of the row, column header);
// pairs present in only one report are reported but never fail the
// gate, so adding an experiment or a row does not require regenerating
// the baseline — only a *shape change* to an existing table does (see
// scripts/bench-update.sh).
//
// Baselines and comparison runs must come from the same machine class
// or the comparison is meaningless. The tool refuses (exit 2) when the
// two reports' GOMAXPROCS differ; run sagivbench with GOMAXPROCS=1,
// the value BENCH_baseline.json records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// report mirrors sagivbench's -json document.
type report struct {
	Go          string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Scale       float64 `json:"scale"`
	Experiments []struct {
		ID     string `json:"id"`
		Tables []struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	} `json:"experiments"`
}

// cellKey identifies one throughput measurement across runs.
type cellKey struct {
	exp, table, config, column string
}

// load reads and decodes one report.
func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// throughputCells extracts every throughput cell of a report.
func throughputCells(r *report) map[cellKey]float64 {
	out := make(map[cellKey]float64)
	for _, exp := range r.Experiments {
		for _, tbl := range exp.Tables {
			titleTput := strings.Contains(tbl.Title, "ops/s")
			for _, row := range tbl.Rows {
				if len(row) == 0 {
					continue
				}
				for i, cell := range row {
					if i == 0 || i >= len(tbl.Headers) {
						continue
					}
					if strings.Contains(tbl.Headers[i], "allocs/op") || strings.Contains(tbl.Headers[i], "B/op") {
						continue // allocation columns gate separately
					}
					if !strings.Contains(tbl.Headers[i], "ops/s") && !titleTput {
						continue
					}
					v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
					if err != nil || v <= 0 {
						continue
					}
					out[cellKey{exp.ID, tbl.Title, row[0], tbl.Headers[i]}] = v
				}
			}
		}
	}
	return out
}

// allocCells extracts every allocation-rate cell (columns headed
// "allocs/op") of a report. Zero is a valid value here — a zero-alloc
// steady state is exactly what the gate protects.
func allocCells(r *report) map[cellKey]float64 {
	out := make(map[cellKey]float64)
	for _, exp := range r.Experiments {
		for _, tbl := range exp.Tables {
			for _, row := range tbl.Rows {
				if len(row) == 0 {
					continue
				}
				for i, cell := range row {
					if i == 0 || i >= len(tbl.Headers) || !strings.Contains(tbl.Headers[i], "allocs/op") {
						continue
					}
					v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
					if err != nil || v < 0 {
						continue
					}
					out[cellKey{exp.ID, tbl.Title, row[0], tbl.Headers[i]}] = v
				}
			}
		}
	}
	return out
}

// pctEnv overrides *pct from the named environment variable.
func pctEnv(name string, pct *float64) error {
	env := os.Getenv(name)
	if env == "" {
		return nil
	}
	v, err := strconv.ParseFloat(env, 64)
	if err != nil {
		return fmt.Errorf("bad %s %q: %v", name, env, err)
	}
	*pct = v
	return nil
}

// sortedKeys returns the union of both maps' keys in deterministic
// report order.
func sortedKeys(a, b map[cellKey]float64) []cellKey {
	seen := make(map[cellKey]bool, len(a)+len(b))
	keys := make([]cellKey, 0, len(a)+len(b))
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.exp != b.exp {
			return a.exp < b.exp
		}
		if a.table != b.table {
			return a.table < b.table
		}
		if a.config != b.config {
			return a.config < b.config
		}
		return a.column < b.column
	})
	return keys
}

// printDeltas renders the full baseline/latest comparison as an
// aligned table, one row per cell present in either report.
func printDeltas(w io.Writer, baseCells, latestCells map[cellKey]float64) {
	fmt.Fprintf(w, "%-4s  %-28s  %-16s  %12s  %12s  %8s\n", "exp", "config", "column", "baseline", "latest", "delta")
	for _, k := range sortedKeys(baseCells, latestCells) {
		b, inBase := baseCells[k]
		l, inLatest := latestCells[k]
		switch {
		case !inLatest:
			fmt.Fprintf(w, "%-4s  %-28s  %-16s  %12.1f  %12s  %8s\n", k.exp, k.config, k.column, b, "-", "gone")
		case !inBase:
			fmt.Fprintf(w, "%-4s  %-28s  %-16s  %12s  %12.1f  %8s\n", k.exp, k.config, k.column, "-", l, "new")
		default:
			delta := 0.0
			if b != 0 {
				delta = (l - b) / b * 100
			}
			fmt.Fprintf(w, "%-4s  %-28s  %-16s  %12.1f  %12.1f  %+7.1f%%\n", k.exp, k.config, k.column, b, l, delta)
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status: 0 pass, 1 a
// regression, 2 the reports cannot be compared.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline report")
	latestPath := fs.String("latest", "", "report to gate (required)")
	maxPct := fs.Float64("max-regression-pct", 15, "fail when a throughput cell drops more than this percent below baseline (env BENCH_MAX_REGRESSION_PCT overrides)")
	maxAllocPct := fs.Float64("max-alloc-regression-pct", 15, "fail when an allocs/op cell rises more than this percent (plus 1 alloc/op of slack) above baseline (env BENCH_MAX_ALLOC_REGRESSION_PCT overrides)")
	deltas := fs.Bool("deltas", false, "print the full per-cell delta table, not just regressions")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := errors.Join(pctEnv("BENCH_MAX_REGRESSION_PCT", maxPct), pctEnv("BENCH_MAX_ALLOC_REGRESSION_PCT", maxAllocPct)); err != nil {
		fmt.Fprintf(stderr, "benchcompare: %v\n", err)
		return 2
	}
	if *latestPath == "" {
		fmt.Fprintln(stderr, "benchcompare: -latest required")
		return 2
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcompare: %v\n", err)
		return 2
	}
	latest, err := load(*latestPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchcompare: %v\n", err)
		return 2
	}
	if base.GOMAXPROCS != latest.GOMAXPROCS {
		fmt.Fprintf(stderr, "benchcompare: GOMAXPROCS differs (baseline %d, latest %d): a cross-machine-class comparison measures the machines, not the code; rerun with GOMAXPROCS=%d\n",
			base.GOMAXPROCS, latest.GOMAXPROCS, base.GOMAXPROCS)
		return 2
	}
	if base.Scale != latest.Scale {
		fmt.Fprintf(stdout, "warning: scale differs (baseline %g, latest %g)\n", base.Scale, latest.Scale)
	}

	baseCells := throughputCells(base)
	latestCells := throughputCells(latest)
	compared, onlyBase, onlyLatest, failures := 0, 0, 0, 0
	for key, b := range baseCells {
		l, ok := latestCells[key]
		if !ok {
			onlyBase++
			continue
		}
		compared++
		delta := (l - b) / b * 100
		if -delta > *maxPct {
			failures++
			fmt.Fprintf(stdout, "REGRESSION %s / %q / %s / %s: %.0f -> %.0f ops/s (%.1f%%, limit -%.0f%%)\n",
				key.exp, key.table, key.config, key.column, b, l, delta, *maxPct)
		}
	}
	for key := range latestCells {
		if _, ok := baseCells[key]; !ok {
			onlyLatest++
		}
	}

	// Allocation gate: allocs/op must not rise. The one-alloc absolute
	// slack keeps near-zero baselines from tripping on measurement
	// noise (one stray allocation against a 2-allocs/op baseline is
	// +50% but means nothing).
	baseAllocs := allocCells(base)
	latestAllocs := allocCells(latest)
	allocCompared, allocFailures := 0, 0
	for key, b := range baseAllocs {
		l, ok := latestAllocs[key]
		if !ok {
			onlyBase++
			continue
		}
		allocCompared++
		if l > b*(1+*maxAllocPct/100)+1 {
			allocFailures++
			fmt.Fprintf(stdout, "ALLOC REGRESSION %s / %q / %s / %s: %.1f -> %.1f allocs/op (limit +%.0f%% +1)\n",
				key.exp, key.table, key.config, key.column, b, l, *maxAllocPct)
		}
	}
	for key := range latestAllocs {
		if _, ok := baseAllocs[key]; !ok {
			onlyLatest++
		}
	}

	if *deltas {
		fmt.Fprintln(stdout)
		printDeltas(stdout, baseCells, latestCells)
		if len(baseAllocs)+len(latestAllocs) > 0 {
			fmt.Fprintln(stdout)
			printDeltas(stdout, baseAllocs, latestAllocs)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "benchcompare: %d throughput cells compared (%d regressions beyond %.0f%%), %d alloc cells compared (%d regressions), %d baseline-only, %d new\n",
		compared, failures, *maxPct, allocCompared, allocFailures, onlyBase, onlyLatest)
	if compared == 0 {
		fmt.Fprintln(stderr, "benchcompare: no comparable throughput cells — wrong files?")
		return 2
	}
	if failures+allocFailures > 0 {
		return 1
	}
	return 0
}
