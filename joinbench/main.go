// Command joinbench is the end-to-end benchmark of the spatial join
// stack. It drives the public layers in-process on three workloads, times
// every join from outside, checks every answer against a reference join
// of its own, and prints the end-to-end metrics (untraced) or the
// per-layer metrics of a traced run. See README.md.
//
// Usage:
//
//	joinbench [--workload all|paper-device|fleet-scatter|tenants-fleet]
//	          [--seed N] [--seconds S] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any join fails or any answer or accounting check does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// outcome is one workload's result.
type outcome struct {
	attempted, failed int
	wrong, audits     int // wrong answers and failed accounting checks
	problems          []string
	metrics           []metric
}

// audit records failed accounting checks.
func (o *outcome) audit(msgs ...string) {
	o.audits += len(msgs)
	o.problems = append(o.problems, msgs...)
}

func run(args []string, stdout, stderr io.Writer, tamper func(*core.Result)) int {
	fs := flag.NewFlagSet("joinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated datasets")
	seconds := fs.Float64("seconds", 10, "timed closed-loop length per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "joinbench: --trace takes 0 or 1")
		return 2
	}

	total := outcome{}
	metrics := map[string]map[string]any{}
	for _, n := range names {
		w, err := buildWorkload(n, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "joinbench:", err)
			return 2
		}
		var o outcome
		if *trace == 1 {
			o, err = tracedRun(w, *seconds, tamper)
		} else {
			o, err = untracedRun(w, *seconds, tamper)
		}
		if err != nil {
			fmt.Fprintf(stderr, "joinbench: %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintf(stdout, "%-14s %-36s %d\n", n, "joins_attempted", o.attempted)
		fmt.Fprintf(stdout, "%-14s %-36s %d\n", n, "joins_failed", o.failed)
		for _, m := range o.metrics {
			fmt.Fprintf(stdout, "%-14s %-36s %.6g %s\n", n, m.name, m.value, m.unit)
			key := m.name
			if len(names) > 1 {
				key = n + "/" + m.name
			}
			metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "joinbench: %s: %s\n", n, p)
		}
		total.attempted += o.attempted
		total.failed += o.failed
		total.wrong += o.wrong
		total.audits += o.audits
	}
	correct := total.wrong == 0 && total.audits == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": total.attempted, "failed": total.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "joinbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct || total.failed > 0 {
		return 1
	}
	return 0
}

// tally counts a phase's joins and collects its failures.
func tally(o *outcome, p *phase) {
	for _, r := range p.all() {
		o.attempted++
		switch {
		case r.err != nil:
			o.failed++
			o.problems = append(o.problems, r.err.Error())
		case r.wrong != "":
			o.failed++
			o.wrong++
			o.problems = append(o.problems, "wrong answer: "+r.wrong)
		}
	}
	o.audit(p.audit...)
	if len(o.problems) > 20 {
		o.problems = o.problems[:20]
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, seconds float64, tamper func(*core.Result)) (outcome, error) {
	p, err := runPhase(w, time.Now(), phaseConfig{seconds: seconds, tamper: tamper})
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	tally(&o, p)
	o.metrics, err = endToEnd(w, p)
	return o, err
}

// tracedRun measures the workload untraced and then traced, for half the
// time each, and reports the per-layer metrics of the traced half with
// the tracing overhead between the two; both halves run the idle pass,
// so they compare like with like. It checks that the traced run
// reproduces the untraced answers and, where framing is deterministic,
// each job's exact wire bytes.
func tracedRun(w *workload, seconds float64, tamper func(*core.Result)) (outcome, error) {
	var o outcome
	plain, err := runPhase(w, time.Now(), phaseConfig{seconds: seconds / 2, idle: true, tamper: tamper})
	if err != nil {
		return o, err
	}
	tally(&o, plain)

	epoch := time.Now()
	tr := &tracing{}
	for range w.clients {
		tr.recorders = append(tr.recorders, newRecorder(epoch))
	}
	if w.tenants == nil {
		tr.leaves = newRecorder(epoch)
	}
	traced, err := runPhase(w, epoch, phaseConfig{seconds: seconds / 2, trace: tr, idle: true, tamper: tamper})
	if err != nil {
		return o, err
	}
	tally(&o, traced)

	if w.deterministic {
		o.audit(sameBytes(w, plain, traced)...)
	}
	overhead := 100 * (p50(traced)/p50(plain) - 1)
	o.metrics = layerMetrics(w, traced, overhead)
	return o, nil
}

// p50 is the median join time of a phase's timed joins.
func p50(p *phase) float64 {
	var ms []float64
	for _, r := range p.timed {
		ms = append(ms, r.ms())
	}
	return median(ms)
}

// sameBytes checks that every job metered the same wire bytes on its
// slot in every untraced and traced run.
func sameBytes(w *workload, plain, traced *phase) []string {
	want := map[[3]int]int{}
	var out []string
	for _, r := range slices.Concat(plain.all(), traced.all()) {
		if r.err != nil {
			continue
		}
		k := [3]int{r.client, r.slot, r.job}
		b, seen := want[k]
		if !seen {
			want[k] = r.stats.TotalBytes()
			continue
		}
		if b != r.stats.TotalBytes() && len(out) < 10 {
			out = append(out, fmt.Sprintf("%s: %d wire bytes, earlier %d", w.clients[r.client].jobs[r.job].label, r.stats.TotalBytes(), b))
		}
	}
	return out
}
