package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// boundedSpec is an end-to-end metric with its regression bound.
type boundedSpec struct {
	metricSpec
	Bound float64 `json:"bound"`
}

// definition is the part of BENCHMARK.json the harness reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedSpec `json:"end_to_end"`
	PerLayer []metricSpec  `json:"per_layer"`
}

func readDefinition(path string) (*definition, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareDirs reads the untraced run records in each directory (one set of
// runs per directory, typically ten seeds per workload) and prints, per
// workload and end-to-end metric, each set's median and its spread: the
// distance between the first and third quartiles as a share of the median.
// Given two sets it also prints how much worse the second median is than
// the first, against the metric's bound, and fails if a bound is exceeded.
func compareDirs(specPath string, dirs []string) error {
	if len(dirs) == 0 {
		return fmt.Errorf("-compare needs one or more run directories")
	}
	def, err := readDefinition(specPath)
	if err != nil {
		return err
	}
	sets := make([]map[string][]*runResult, len(dirs))
	for i, dir := range dirs {
		if sets[i], err = readRuns(dir); err != nil {
			return err
		}
	}
	failed := false
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, m := range def.EndToEnd {
			fmt.Printf("  %-20s", m.Name)
			var medians []float64
			for _, set := range sets {
				var xs []float64
				for _, r := range set[w.name] {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
				if len(xs) < 2 {
					fmt.Printf("  %d runs", len(xs))
					medians = append(medians, 0)
					continue
				}
				med, spread := medianSpread(xs)
				medians = append(medians, med)
				flag := ""
				if m.Name != "setup_s" && spread > m.Bound {
					flag, failed = " SPREAD>BOUND", true
				}
				fmt.Printf("  median %12.4f %-10s spread %6.2f%%%s", med, m.Unit, 100*spread, flag)
			}
			if len(medians) == 2 && medians[0] != 0 {
				worse := (medians[1] - medians[0]) / medians[0]
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > m.Bound {
					verdict, failed = "REGRESSION", true
				}
				fmt.Printf("  worse %+6.2f%% (bound %.0f%%) %s", 100*worse, 100*m.Bound, verdict)
			}
			fmt.Println()
		}
	}
	if failed {
		return fmt.Errorf("a spread or a median change exceeds its bound")
	}
	return nil
}

// readRuns loads the untraced run records of one directory by workload.
func readRuns(dir string) (map[string][]*runResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*runResult{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, nil
}

// medianSpread returns the median of xs and the distance between its first
// and third quartiles as a share of the median, with quartiles computed as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method).
func medianSpread(xs []float64) (med, spread float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = percentile(s, 0.5)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return med, (q(3) - q(1)) / med
}
