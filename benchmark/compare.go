package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges one end-to-end metric of one workload, b against a: how
// much worse b's value is as a share of a's, and whether that is within the
// bound. When in either run the typical window lies further from the reported
// best quarter than the bound, the host disturbed most of that run by more
// than the change to be resolved.
func verdict(a, b metric, higherBetter bool, bound float64) (worse float64, word string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	worse = (b.Value - a.Value) / a.Value
	if higherBetter {
		worse = -worse
	}
	switch {
	case offPlateau(a) > bound || offPlateau(b) > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles applies BENCHMARK.json's bounds to two -out files and prints
// one row per workload and end-to-end metric. It returns 1 when any row
// regressed.
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "geobench: -compare takes two result files")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "geobench:", err)
		return 1
	}
	var c contract
	var recs [2]record
	for i, path := range []string{filepath.Join(root, "BENCHMARK.json"), args[0], args[1]} {
		data, err := os.ReadFile(path)
		if err == nil {
			if i == 0 {
				err = json.Unmarshal(data, &c)
			} else {
				err = json.Unmarshal(data, &recs[i-1])
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "geobench: %s: %v\n", path, err)
			return 1
		}
	}
	byName := make(map[string]*result)
	for _, r := range recs[1].Results {
		byName[r.Workload] = r
	}
	code := 0
	fmt.Printf("%-14s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", args[0], args[1], "worse", "bound", "verdict")
	for _, ra := range recs[0].Results {
		rb := byName[ra.Workload]
		if rb == nil {
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Printf("%-14s failed operations: %d and %d\n", ra.Workload, ra.Failed, rb.Failed)
			code = 1
		}
		for _, m := range c.EndToEnd {
			worse, word := verdict(ra.Metrics[m.Name], rb.Metrics[m.Name], m.Better == "higher", m.Bound)
			if word == "regressed" {
				code = 1
			}
			fmt.Printf("%-14s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				ra.Workload, m.Name, ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value, worse*100, m.Bound*100, word)
		}
	}
	return code
}
