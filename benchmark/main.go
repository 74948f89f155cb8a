// Command benchmark is the end-to-end benchmark of wise-serve. It builds
// cmd/wise-serve, starts it as a child process on a loopback port with the
// committed model fixture, drives one of four named workloads at it from at
// most two connections, checks every answer against an in-process
// reference, and prints each metric of BENCHMARK.json by name with its unit.
// With -trace 1 it also replays the workload's op schedule in-process with a
// span around every layer call and prints the per-layer metrics instead.
//
//	go run . -workload cold-predict -seed 1         # from this directory
//	go run . -workload all -runs 10 -o a.json
//	go run . -workload warm-spmv -trace 1 -trace-out warm.json
//	go run . -compare a.json b.json
//
// bash benchmark/run.sh, run from the repository root, builds with its Go
// cache under .bench_build/ and takes the same flags. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit codes: 0 every answer right, 1 a wrong answer, a failed
// op, a drain that did not exit 130, or a run that could not be measured
// (and, for -compare, any metric worse), 2 usage, 130 interrupted. See
// README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wise/internal/core"
	"wise/internal/machine"
	"wise/internal/resilience"
)

// Exit codes, as the repository's CLIs use them (RESILIENCE.md).
const (
	exitOK          = 0
	exitFail        = 1
	exitUsage       = 2
	exitInterrupted = 130
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "", "workload name, comma-separated names, or all")
		seed         = fs.Int64("seed", 1, "input seed: generates the matrix pool and the op schedule")
		seconds      = fs.Float64("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "1 replays the workload in-process with spans and prints the per-layer metrics")
		traceOut     = fs.String("trace-out", "", "Chrome trace-event file of a traced run (default <build-dir>/trace-<workload>-<seed>.json)")
		runs         = fs.Int("runs", 1, "runs of each workload, with seeds seed, seed+1, ...")
		outFile      = fs.String("o", "", "write every run's outcome to this JSON file, the input of -compare")
		compare      = fs.Bool("compare", false, "compare two -o files: -compare a.json b.json")
		rootFlag     = fs.String("root", "", "repository root (default: the nearest directory at or above the working directory holding BENCHMARK.json)")
		buildDir     = fs.String("build-dir", "", "where wise-serve is built and traces are written (default <root>/.bench_build)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	root := *rootFlag
	if root == "" {
		wd, err := os.Getwd()
		if err == nil {
			root, err = findRoot(wd)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitFail
		}
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitFail
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: usage: -compare a.json b.json")
			return exitUsage
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1))
	}
	ws, err := selectWorkloads(*workloadFlag)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	case fs.NArg() != 0:
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return exitUsage
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %d must be 0 or 1\n", *trace)
		return exitUsage
	case *runs < 1:
		fmt.Fprintf(os.Stderr, "benchmark: -runs %d must be at least 1\n", *runs)
		return exitUsage
	case *traceOut != "" && len(ws)*(*runs) > 1:
		fmt.Fprintln(os.Stderr, "benchmark: -trace-out names one file; run one workload once")
		return exitUsage
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *buildDir == "" {
		*buildDir = filepath.Join(root, ".bench_build")
	}

	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()
	e, err := newEnv(ctx, root, *buildDir, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitFail
	}
	var outcomes []*runOutcome
	for r := 0; r < *runs; r++ {
		for _, w := range ws {
			o, err := runWorkload(ctx, e, w, *seed+int64(r), *trace == 1, *traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				if ctx.Err() != nil {
					return exitInterrupted
				}
				return exitFail
			}
			if err := printRun(spec, o); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return exitFail
			}
			outcomes = append(outcomes, o)
		}
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(runSet{Env: currentHost(), Runs: outcomes}, "", " ")
		if err == nil {
			err = resilience.AtomicWriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing -o %s: %v\n", *outFile, err)
			return exitFail
		}
	}
	line, correct := resultJSON(spec, outcomes, *trace == 1)
	fmt.Println(line)
	if !correct {
		return exitFail
	}
	return exitOK
}

func selectWorkloads(arg string) ([]*workload, error) {
	if arg == "all" {
		return workloads(), nil
	}
	if arg == "" {
		return nil, errors.New("benchmark: -workload is required (a name, comma-separated names, or all)")
	}
	var out []*workload
	for _, name := range strings.Split(arg, ",") {
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("benchmark: unknown -workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// newEnv builds the server and loads the model fixture.
func newEnv(ctx context.Context, root, buildDir string, seconds time.Duration) (*env, error) {
	bin, err := buildServer(ctx, root, buildDir)
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(root, "benchmark", "testdata", "model.json")
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, fmt.Errorf("benchmark: reading the model fixture: %w", err)
	}
	model, err := core.Load(modelPath, machine.Scaled())
	if err != nil {
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	return &env{root: root, buildDir: buildDir, serverBin: bin, modelPath: modelPath, modelRaw: raw,
		model: model, seconds: seconds, setups: 5}, nil
}

// printRun prints a run's digest and declared metrics, one per line, and
// its errors and validity warnings to stderr. A declared metric the run did
// not produce is an error.
func printRun(spec *benchSpec, o *runOutcome) error {
	fmt.Printf("%s digest %s sha256\n", o.Workload, o.Digest)
	for _, m := range spec.metrics(o.Trace) {
		v, ok := o.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("benchmark: %s produced no %s", o.Workload, m.Name)
		}
		fmt.Printf("%s %s %s %s\n", o.Workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	for _, e := range o.Errors {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s\n", o.Workload, o.Seed, e)
	}
	for _, e := range o.Warnings {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: invalid run: %s\n", o.Workload, o.Seed, e)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output. Each metric's value is
// the median over the runs; with more than one workload, names are
// prefixed with the workload.
func resultJSON(spec *benchSpec, outcomes []*runOutcome, trace bool) (string, bool) {
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	byWorkload := map[string][]*runOutcome{}
	for _, o := range outcomes {
		res.Correct = res.Correct && o.Correct
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		byWorkload[o.Workload] = append(byWorkload[o.Workload], o)
	}
	for name, runs := range byWorkload {
		for _, m := range spec.metrics(trace) {
			var vs []float64
			for _, o := range runs {
				vs = append(vs, o.Metrics[m.Name])
			}
			key := m.Name
			if len(byWorkload) > 1 {
				key = name + "." + m.Name
			}
			res.Metrics[key] = metricValue{Value: median(vs), Unit: m.Unit}
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(data), res.Correct
}

func runCompare(spec *benchSpec, pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	rows := compareSets(spec, a, b)
	fmt.Print(formatCompare(rows))
	for _, r := range rows {
		if r.Verdict == "worse" {
			return exitFail
		}
	}
	return exitOK
}

// hostEnv describes the machine a run set was measured on.
type hostEnv struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() hostEnv {
	h := hostEnv{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}
