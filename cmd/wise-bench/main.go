// wise-bench regenerates every table and figure of the paper's evaluation
// (see DESIGN.md for the per-experiment index), printing each as an aligned
// text table and optionally writing them to a results directory.
//
//	wise-bench                      # all experiments, default scaled corpus
//	wise-bench -exp fig13           # one experiment
//	wise-bench -full -outdir results
//	wise-bench -small               # CI-size smoke corpus (-medium in between)
//	wise-bench -v -metrics m.json   # live progress + per-stage metrics
//	wise-bench -checkpoint run.ckpt # resumable labeling (RESILIENCE.md)
//
// It also converts and judges the package micro-benchmarks (BENCHMARKS.md):
//
//	go test -run '^$' -bench . ./internal/kernels | wise-bench -o BENCH_6.json
//	wise-bench -compare old.json new.json    # paired verdicts; exit 1 on regression
//
// The expensive labeling pass (cache-simulating cost model, 29 methods per
// matrix) can be cached across runs with -save-labels/-load-labels. The
// observability flags (-v, -metrics, -cpuprofile, -memprofile) are shared
// by every wise CLI and documented in OBSERVABILITY.md; -v reports live
// labeling/evaluation progress with ETA, and -metrics writes a JSON
// snapshot with the corpus {gen, label} spans and one span per experiment.
//
// Fault tolerance (RESILIENCE.md): -checkpoint makes labeling resumable;
// SIGINT/SIGTERM flushes completed labels and exits with status 130.
// Exit codes: 0 success, 1 I/O or pipeline failure, 2 usage error, 130
// interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wise/internal/bench"
	"wise/internal/experiments"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/obs"
	"wise/internal/perf"
	"wise/internal/resilience"
	"wise/internal/resilience/faultinject"
)

// Exit codes, shared by the wise CLIs and documented in RESILIENCE.md.
const (
	exitOK          = 0
	exitIO          = 1
	exitUsage       = 2
	exitInterrupted = 130
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment: all, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig10, fig11, fig12, fig13, ie, table4, importance, ablations")
		full       = flag.Bool("full", false, "use the full paper-shaped corpus (much slower)")
		small      = flag.Bool("small", false, "use a small smoke corpus (fast, for CI)")
		medium     = flag.Bool("medium", false, "use the medium corpus (~500 matrices)")
		outdir     = flag.String("outdir", "", "also write each table to <outdir>/<id>.txt")
		workers    = flag.Int("workers", 0, "labeling workers (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "corpus seed")
		saveLabels = flag.String("save-labels", "", "after labeling, save the labeled corpus to this gzipped JSON file")
		loadLabels = flag.String("load-labels", "", "skip labeling and reuse a corpus saved with -save-labels")
		checkpoint = flag.String("checkpoint", "", "labeling checkpoint file for resumable runs (see RESILIENCE.md)")

		out       = flag.String("o", "", "read `go test -bench` output on stdin and write it as a BENCH_<n>.json report here")
		compare   = flag.Bool("compare", false, "compare two BENCH_*.json files (old new) round by round; exit 1 on regression")
		threshold = flag.Float64("threshold", bench.DefaultThreshold, "with -compare: relative change the per-round ratio quartiles must clear")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	// -compare is the only mode taking positional arguments (old.json new.json).
	if !*compare && flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wise-bench: unexpected argument %q (wise-bench takes only flags)\n", flag.Arg(0))
		return exitUsage
	}
	if err := faultinject.ConfigureFromEnv(os.Getenv); err != nil {
		fmt.Fprintf(os.Stderr, "wise-bench: %v\n", err)
		return exitUsage
	}
	finishObs := obsFlags.MustStart()
	defer func() {
		if err := finishObs(); err != nil {
			fmt.Fprintf(os.Stderr, "wise-bench: %v\n", err)
		}
	}()

	sigCtx, stop := resilience.SignalContext(context.Background())
	defer stop()

	// Harness modes (BENCHMARKS.md) run before the experiment pipeline.
	if *compare {
		return runCompare(flag.Args(), *threshold)
	}
	if *out != "" {
		return runConvert(os.Stdin, *out)
	}

	ccfg := experiments.DefaultContextConfig()
	if *full {
		ccfg.Corpus = gen.FullCorpusConfig()
	}
	if *medium {
		ccfg.Corpus = gen.MediumCorpusConfig()
	}
	if *small {
		ccfg = experiments.SmokeContextConfig()
	}
	ccfg.Corpus.Seed = *seed
	ccfg.Workers = *workers
	ccfg.Checkpoint = *checkpoint

	needsCorpus := *exp != "fig5" && *exp != "fig6"
	t0 := time.Now()
	var ctx *experiments.Context
	switch {
	case *loadLabels != "":
		labels, err := perf.LoadLabels(*loadLabels)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wise-bench: -load-labels %s: %v\n", *loadLabels, err)
			return exitIO
		}
		ctx = experiments.NewContextFromLabels(labels)
		fmt.Fprintf(os.Stderr, "loaded %d labeled matrices from %s\n\n", len(ctx.Labels), *loadLabels)
	case needsCorpus || *exp == "all":
		fmt.Fprintf(os.Stderr, "labeling corpus (this runs the cache-simulating cost model on 29 methods per matrix)...\n")
		var err error
		ctx, err = experiments.NewContextCtx(sigCtx, ccfg)
		if ctx != nil && ctx.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "resumed %d already-labeled matrices from %s\n", ctx.Resumed, *checkpoint)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wise-bench: %v\n", err)
			if errors.Is(err, perf.ErrInterrupted) {
				return exitInterrupted
			}
			return exitIO
		}
		reportQuarantine(ctx.Quarantined)
		fmt.Fprintf(os.Stderr, "labeled %d matrices in %v\n\n", len(ctx.Labels), time.Since(t0).Round(time.Second))
	default:
		// Sweeps only need the estimator, not the corpus: use a tiny context.
		ctx = experiments.NewContext(experiments.SmokeContextConfig())
	}
	if *saveLabels != "" {
		if err := perf.SaveLabels(*saveLabels, ctx.Labels); err != nil {
			fmt.Fprintf(os.Stderr, "wise-bench: -save-labels %s: %v\n", *saveLabels, err)
			return exitIO
		}
		fmt.Fprintf(os.Stderr, "saved labels to %s\n", *saveLabels)
	}

	sweepCfg := experiments.DefaultSweepConfig()

	// Each experiment is one named builder so the driver loop can time it as
	// an obs span and report progress; ids match the -exp selectors and the
	// emitted table ids.
	type expBuild struct {
		id    string
		build func() *experiments.Table
	}
	one := func(id string, build func() *experiments.Table) []expBuild {
		return []expBuild{{id: id, build: build}}
	}
	ablations := func() []expBuild {
		return []expBuild{
			{"ablation-features", func() *experiments.Table { return experiments.AblationFeatureSets(ctx) }},
			{"ablation-classes", func() *experiments.Table { return experiments.AblationClasses(ctx) }},
			{"ablation-tiebreak", func() *experiments.Table { return experiments.AblationTieBreak(ctx) }},
			{"ablation-forest", func() *experiments.Table { return experiments.AblationModelFamily(ctx) }},
			{"ablation-flatmem", func() *experiments.Table { return experiments.AblationFlatMemory(ctx, smallProbe(*seed)) }},
		}
	}

	var builds []expBuild
	switch *exp {
	case "all":
		builds = []expBuild{
			{"fig1", func() *experiments.Table { return experiments.Fig1Formats(ctx) }},
			{"fig2", func() *experiments.Table { return experiments.Fig2(ctx) }},
			{"fig3", func() *experiments.Table { return experiments.Fig3(ctx) }},
			{"fig4", func() *experiments.Table { return experiments.Fig4(ctx) }},
			{"fig7", func() *experiments.Table { return experiments.Fig7(ctx) }},
			{"fig10", func() *experiments.Table { return experiments.Fig10(ctx) }},
			{"fig11", func() *experiments.Table { return experiments.Fig11(ctx) }},
			{"fig12", func() *experiments.Table { return experiments.Fig12(ctx) }},
			{"fig13", func() *experiments.Table { return experiments.Fig13(ctx) }},
			{"sec6.4", func() *experiments.Table { return experiments.Sec64(ctx) }},
			{"table4", func() *experiments.Table { return experiments.Table4(ctx) }},
			{"importance", func() *experiments.Table { return experiments.FeatureImportance(ctx) }},
			{"fig5", func() *experiments.Table { return experiments.Fig5(ctx, sweepCfg) }},
			{"fig6", func() *experiments.Table { return experiments.Fig6(ctx, sweepCfg) }},
		}
		builds = append(builds, ablations()...)
	case "fig1":
		builds = one("fig1", func() *experiments.Table { return experiments.Fig1Formats(ctx) })
	case "fig2":
		builds = one("fig2", func() *experiments.Table { return experiments.Fig2(ctx) })
	case "fig3":
		builds = one("fig3", func() *experiments.Table { return experiments.Fig3(ctx) })
	case "fig4":
		builds = one("fig4", func() *experiments.Table { return experiments.Fig4(ctx) })
	case "fig5":
		builds = one("fig5", func() *experiments.Table { return experiments.Fig5(ctx, sweepCfg) })
	case "fig6":
		builds = one("fig6", func() *experiments.Table { return experiments.Fig6(ctx, sweepCfg) })
	case "fig7":
		builds = one("fig7", func() *experiments.Table { return experiments.Fig7(ctx) })
	case "fig10":
		builds = one("fig10", func() *experiments.Table { return experiments.Fig10(ctx) })
	case "fig11":
		builds = one("fig11", func() *experiments.Table { return experiments.Fig11(ctx) })
	case "fig12":
		builds = one("fig12", func() *experiments.Table { return experiments.Fig12(ctx) })
	case "fig13":
		builds = one("fig13", func() *experiments.Table { return experiments.Fig13(ctx) })
	case "ie", "sec6.4":
		builds = one("sec6.4", func() *experiments.Table { return experiments.Sec64(ctx) })
	case "table4":
		builds = one("table4", func() *experiments.Table { return experiments.Table4(ctx) })
	case "importance":
		builds = one("importance", func() *experiments.Table { return experiments.FeatureImportance(ctx) })
	case "ablations":
		builds = ablations()
	default:
		fmt.Fprintf(os.Stderr, "wise-bench: unknown experiment %q for -exp\n", *exp)
		return exitUsage
	}

	expSpan := obs.Begin("experiments")
	progress := obs.StartProgress("experiments", len(builds))
	var tables []*experiments.Table
	for _, b := range builds {
		sp := expSpan.Child(b.id)
		tables = append(tables, b.build())
		obs.Verbosef("experiment %s done in %v", b.id, sp.End().Round(time.Millisecond))
		progress.Add(1)
	}
	progress.Finish()
	expSpan.End()

	for _, tab := range tables {
		fmt.Println(tab.String())
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "wise-bench: creating -outdir %s: %v\n", *outdir, err)
				return exitIO
			}
			name := strings.ReplaceAll(tab.ID, ".", "_") + ".txt"
			path := filepath.Join(*outdir, name)
			if err := resilience.AtomicWriteFile(path, []byte(tab.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "wise-bench: writing %s: %v\n", path, err)
				return exitIO
			}
		}
	}
	fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(t0).Round(time.Second))
	return exitOK
}

// reportQuarantine prints the matrices withheld from the run (panic or
// deadline during labeling); counts also land in the metrics snapshot as
// perf.matrices_quarantined.
func reportQuarantine(qs []perf.QuarantinedMatrix) {
	if len(qs) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "wise-bench: %d matrices quarantined during labeling:\n", len(qs))
	for _, q := range qs {
		fmt.Fprintf(os.Stderr, "  %-24s class=%-3s %s\n", q.Name, q.Class, q.Err)
	}
}

// runConvert reads `go test -bench` text and writes it as a BENCH report.
// Output reporting a failure writes nothing and exits 1.
func runConvert(in io.Reader, out string) int {
	rep, err := bench.Parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wise-bench: -o %s: %v\n", out, err)
		return exitIO
	}
	rep.Env.Kernels = kernels.Path()
	if err := rep.WriteFile(out); err != nil {
		fmt.Fprintf(os.Stderr, "wise-bench: -o %s: %v\n", out, err)
		return exitIO
	}
	fmt.Print(rep.String())
	fmt.Fprintf(os.Stderr, "wrote %d benchmark rows to %s\n", len(rep.Results), out)
	return exitOK
}

// runCompare pairs two BENCH_*.json reports round by round. Exit codes: 0
// no row regressed, 1 some row regressed, 2 usage or schema-version
// mismatch (the error names the offending file).
func runCompare(args []string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "wise-bench: -compare takes exactly two files (old.json new.json), got %d\n", len(args))
		return exitUsage
	}
	oldR, err := bench.ReadReport(args[0])
	if err != nil {
		return compareReadError(err)
	}
	newR, err := bench.ReadReport(args[1])
	if err != nil {
		return compareReadError(err)
	}
	cmp, err := bench.Compare(oldR, newR, threshold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wise-bench: %v\n", err)
		return exitUsage
	}
	fmt.Print(cmp.String())
	if n := cmp.Counts[bench.Regressed]; n > 0 {
		fmt.Fprintf(os.Stderr, "wise-bench: %d benchmark(s) regressed beyond ±%.0f%% (%s -> %s)\n",
			n, cmp.Threshold*100, args[0], args[1])
		return exitIO
	}
	return exitOK
}

// compareReadError maps a report-read failure to the exit-code contract:
// schema mismatches are usage errors (2, the file names the version), other
// read failures are I/O (1).
func compareReadError(err error) int {
	fmt.Fprintf(os.Stderr, "wise-bench: %v\n", err)
	if errors.Is(err, bench.ErrSchema) {
		return exitUsage
	}
	return exitIO
}

func smallProbe(seed int64) gen.CorpusConfig {
	return gen.CorpusConfig{
		Seed:      seed + 100,
		RowScales: []float64{10, 12, 14},
		Degrees:   []float64{8, 32},
		MaxNNZ:    1 << 21,
		SciCount:  8,
	}
}
