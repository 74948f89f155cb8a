package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"wise/internal/stats"
)

// ErrFailed marks `go test` output that reports a failure: a report built
// from it would silently lack the rows that failed.
var ErrFailed = errors.New("benchmark run failed")

// row accumulates one benchmark's samples while Parse reads.
type row struct {
	res   Result
	units map[string][]float64
}

// Parse converts standard `go test -bench` text into a Report. Each
// `pkg:` header starts a block; the `goos:`, `goarch:` and `cpu:` headers
// fill the environment block. Every benchmark line adds one sample to the
// row of its name, with the GOMAXPROCS suffix (`-2`) stripped, so the
// output of -count N, or of N runs concatenated, yields N samples per row
// in input order. A FAIL line is an error wrapping ErrFailed.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Schema: SchemaVersion}
	rows := make([]*row, 0, 64)
	byKey := make(map[string]*row)
	pkg := ""
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(text, "FAIL") || strings.HasPrefix(text, "--- FAIL") {
			return nil, fmt.Errorf("bench: line %d: %q: %w", line, text, ErrFailed)
		}
		if key, value, ok := strings.Cut(text, ": "); ok {
			switch key {
			case "goos":
				rep.Env.GOOS = value
			case "goarch":
				rep.Env.GOARCH = value
			case "cpu":
				rep.Env.CPU = value
			case "pkg":
				pkg = value
			}
			continue
		}
		fields := strings.Fields(text)
		if !strings.HasPrefix(text, "Benchmark") || len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // a benchmark's log line, not a result line
		}
		name, procs := splitProcs(fields[0])
		if rep.Env.GOMAXPROCS == 0 {
			rep.Env.GOMAXPROCS = procs
		} else if procs != rep.Env.GOMAXPROCS {
			return nil, fmt.Errorf("bench: line %d: %s ran at GOMAXPROCS %d, earlier lines at %d; convert one -cpu value per report",
				line, name, procs, rep.Env.GOMAXPROCS)
		}
		rw := byKey[pkg+" "+name]
		if rw == nil {
			rw = &row{res: Result{Pkg: pkg, Name: name}, units: make(map[string][]float64)}
			rw.res.Ns = make([]float64, 0, 8)
			byKey[rw.res.key()] = rw
			rows = append(rows, rw)
		}
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: value %q of %s: %w", line, fields[i], fields[i+1], err)
			}
			if fields[i+1] == "ns/op" {
				rw.res.Ns = append(rw.res.Ns, v)
			} else {
				rw.units[fields[i+1]] = append(rw.units[fields[i+1]], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: reading benchmark output: %w", err)
	}
	if len(rows) == 0 {
		return nil, errors.New("bench: no benchmark lines in the input")
	}
	rep.Results = make([]Result, 0, len(rows))
	for _, rw := range rows {
		rep.Results = append(rep.Results, rw.summarize())
	}
	return rep, nil
}

// summarize fills the row's statistics: min, median and p95 of ns/op, and
// the median of every other unit.
func (rw *row) summarize() Result {
	res := rw.res
	res.NsMin = stats.Percentile(res.Ns, 0)
	res.NsMedian = stats.Percentile(res.Ns, 50)
	res.NsP95 = stats.Percentile(res.Ns, 95)
	if len(rw.units) > 0 {
		res.Units = make(map[string]float64, len(rw.units))
		for u, vs := range rw.units {
			res.Units[u] = stats.Percentile(vs, 50)
		}
	}
	return res
}

// splitProcs strips the `-N` GOMAXPROCS suffix `go test` appends to a
// benchmark name; a name without one ran at GOMAXPROCS 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return name, 1
	}
	return name[:i], n
}
