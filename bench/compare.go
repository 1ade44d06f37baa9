package main

// -compare: two result files, one row per workload × end-to-end metric.
// Runs are paired by seed: a seed's value in the base file is set
// against the same seed's value in the new file, so the spread between
// seeds cancels and the simulated metrics, which repeat exactly for a
// seed, are held to their tight bound.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// sample is a sorted set of values.
type sample []float64

func (s sample) median() float64 { return quantile(s, 0.5) }

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a difference has to beat.
func (s sample) spread() float64 {
	if len(s) < 2 || s.median() == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / s.median()
}

// bySeed is one metric of one workload over a file's untraced runs; a
// seed the file ran more than once stands by the median of its runs.
func bySeed(f *resultFile, workload, metric string) map[uint64]float64 {
	runs := map[uint64]sample{}
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			runs[r.Seed] = append(runs[r.Seed], r.EndToEnd[metric])
		}
	}
	out := map[uint64]float64{}
	for seed, s := range runs {
		sort.Float64s(s)
		out[seed] = s.median()
	}
	return out
}

// paired is one metric on the seeds both files ran.
type paired struct {
	base, next sample // the two sides' values
	ratios     sample // new ÷ base, seed by seed
	exact      int    // seeds on which the two values are identical
}

func pair(base, next map[uint64]float64) paired {
	var p paired
	for seed, b := range base {
		n, ok := next[seed]
		if !ok {
			continue
		}
		p.base, p.next, p.ratios = append(p.base, b), append(p.next, n), append(p.ratios, n/b)
		if n == b {
			p.exact++
		}
	}
	sort.Float64s(p.base)
	sort.Float64s(p.next)
	sort.Float64s(p.ratios)
	return p
}

// verdict holds the median of the per-seed ratios to the metric's
// paired bound. When the ratios themselves spread wider than the bound
// the pairs cannot resolve a difference of the bound's size, and the
// verdict says so instead of "same".
func verdict(d metricDef, p paired) (ratio float64, v string) {
	ratio = p.ratios.median()
	worse := ratio - 1 // relative change in the direction that is worse
	if d.Better == higher {
		worse = 1 - ratio
	}
	switch {
	case p.ratios.spread() > d.Paired:
		v = "unresolved"
	case worse > d.Paired:
		v = "worse"
	case worse < -d.Paired:
		v = "better"
	default:
		v = "same"
	}
	return ratio, v
}

func compareFiles(w io.Writer, basePath, nextPath string) error {
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	next, err := loadResults(nextPath)
	if err != nil {
		return err
	}
	if base.Meta.Size != next.Meta.Size || base.Meta.Seconds != next.Meta.Seconds {
		return fmt.Errorf("%s ran -size %s -seconds %d, %s ran -size %s -seconds %d: the two did not measure the same work",
			basePath, base.Meta.Size, base.Meta.Seconds, nextPath, next.Meta.Size, next.Meta.Seconds)
	}
	fmt.Fprintf(w, "base %s: %+v\nnew  %s: %+v\n", basePath, base.Meta, nextPath, next.Meta)
	compared := 0
	for _, def := range workloads {
		b, n := bySeed(base, def.name, "setup_s"), bySeed(next, def.name, "setup_s")
		shared := len(pair(b, n).ratios)
		if shared == 0 {
			if len(b) > 0 || len(n) > 0 {
				fmt.Fprintf(w, "\n%s: no seed in common (base ran %d, new ran %d)\n", def.name, len(b), len(n))
			}
			continue
		}
		compared++
		fmt.Fprintf(w, "\n%s: %d seeds in both files (base ran %d, new ran %d)\n  %-20s %14s %14s %9s %7s %8s %6s  %s\n", def.name,
			shared, len(b), len(n), "metric", "base median", "new median", "new/base", "bound", "spread", "equal", "verdict")
		for _, d := range endToEnd {
			p := pair(bySeed(base, def.name, d.Name), bySeed(next, def.name, d.Name))
			ratio, v := verdict(d, p)
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %9.4f %6.0f%% %7.2f%% %4d/%d  %s\n",
				d.Name, p.base.median(), p.next.median(), ratio, 100*d.Paired, 100*p.ratios.spread(), p.exact, shared, v)
		}
		fmt.Fprintf(w, "  sim_digest: %s\n", compareDigests(base, next, def.name))
	}
	if compared == 0 {
		return fmt.Errorf("%s and %s share no workload and seed", basePath, nextPath)
	}
	return nil
}

// compareDigests matches the two files' digests seed by seed.
func compareDigests(base, next *resultFile, workload string) string {
	digests := func(f *resultFile) map[uint64]string {
		m := map[uint64]string{}
		for _, r := range f.Runs {
			if r.Workload == workload {
				m[r.Seed] = r.SimDigest
			}
		}
		return m
	}
	b, n := digests(base), digests(next)
	var differ []uint64
	shared := 0
	for seed, d := range b {
		if nd, ok := n[seed]; ok {
			shared++
			if nd != d {
				differ = append(differ, seed)
			}
		}
	}
	sort.Slice(differ, func(i, j int) bool { return differ[i] < differ[j] })
	if len(differ) == 0 {
		return fmt.Sprintf("match on all %d shared seeds: the simulated schedule is unchanged", shared)
	}
	return fmt.Sprintf("DIFFER on seeds %v of %d shared: the simulated schedule changed", differ, shared)
}
