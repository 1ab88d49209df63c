package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Set-up is sampled in fresh processes, the measured child's own set-up
// included, until at least minSetups samples and setupBudget of set-up
// time (at most maxSetups); setup_s is their median. Short set-ups get
// more samples, so no single short reading decides the value.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	code, err := parentMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what a measured child prints on its last line.
type childReport struct {
	SetupS    float64           `json:"setup_s"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	OpN       int               `json:"op_samples"`
	SideN     int               `json:"side_samples"`
	Writes    *classSummary     `json:"writes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// classSummary records a timed request stream that is not one of the
// measured classes: serve's writes, open-loop latency from the due time.
type classSummary struct {
	N   int     `json:"samples"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
}

func parentMain(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve, ingest or watched")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traceMode := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *traceMode < 0 || *traceMode > 1 {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	root := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(root, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)

	p, err := makePlan(w, *seed, *seconds, dir)
	if err != nil {
		return 1, fmt.Errorf("generate inputs: %w", err)
	}
	meta := describe(w, p)
	mode, tracePath := "run", ""
	if *traceMode == 1 {
		mode = "trace"
		if tracePath, err = filepath.Abs(filepath.Join(root, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))); err != nil {
			return 1, err
		}
		meta["trace_file"] = tracePath
	}
	steal0 := readSteal()
	rep, err := runChild(mode, dir, tracePath)
	if err != nil {
		return 1, err
	}
	meta["steal_frac"] = readSteal().since(steal0)
	if mode == "trace" {
		return finish(meta, rep, rep.Metrics)
	}

	setups := []float64{rep.SetupS}
	for total := rep.SetupS; len(setups) < maxSetups &&
		(len(setups) < minSetups || total < setupBudget.Seconds()); {
		r, err := runChild("setup", dir, "")
		if err != nil {
			return 1, err
		}
		setups = append(setups, r.SetupS)
		total += r.SetupS
	}
	meta["setup_samples_s"] = setups
	ms := rep.Metrics
	ms["setup_s"] = metric{quantile(setups, 0.5), "s"}
	return finish(meta, rep, ms)
}

// finish prints the run description and the result line, and turns a
// failed check into a non-zero exit.
func finish(meta map[string]any, rep *childReport, ms map[string]metric) (int, error) {
	meta["op_samples"], meta["side_samples"] = rep.OpN, rep.SideN
	if rep.Writes != nil {
		meta["write_latency"] = rep.Writes
	}
	if len(rep.Errors) > 0 {
		meta["errors"] = rep.Errors
	}
	line, err := json.Marshal(map[string]any{"run": meta})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: ms}
	line, err = json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1, errors.New("correctness check failed")
	}
	return 0, nil
}

// runChild runs one fresh measured process and decodes its report.
func runChild(mode, dir, tracePath string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "child", mode, dir, tracePath)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s child report: %w", mode, err)
	}
	return &rep, nil
}

// describe records the host shape and the workload's configuration.
func describe(w workload, p *plan) map[string]any {
	graphDesc := fmt.Sprintf("%s stand-in at %g (%d V / %d E)", p.Dataset, p.Fraction, p.Vertices, p.Edges)
	d := map[string]any{
		"workload": w.name,
		"seed":     p.Seed,
		"seconds":  p.Seconds,
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"cpu":        cpuModel(),
		},
		"graph":   graphDesc,
		"workers": p.Workers,
		"op":      opDesc(p),
		"side":    sideDesc(p),
		"clients": w.clients,
	}
	if p.Workload == "serve" {
		d["writes"] = editDesc(p.OpBatch) + ", " + rateDesc(p.OpRate, 0) + "; load under the reads, summarized in write_latency, not a measured class"
	}
	return d
}

func rateDesc(r float64, think time.Duration) string {
	switch {
	case r > 0:
		return strconv.FormatFloat(r, 'g', -1, 64) + "/s open loop"
	case think > 0:
		return fmt.Sprintf("closed loop, think time uniform in [%v, %v]", think/2, think*3/2)
	}
	return "closed loop"
}

func editDesc(n int) string {
	return fmt.Sprintf("POST /edges: insert %d fresh Zipf-skewed edges, remove the previous %d", n, n)
}

// opDesc and sideDesc give each measured class's shape and pacing.
func opDesc(p *plan) string {
	switch p.Workload {
	case "serve":
		return "GET /kappa on a Zipf-chosen base edge, 80% of one reader's requests; " + rateDesc(0, p.SideThink)
	case "ingest":
		return fmt.Sprintf("POST /edges: remove %d base edges, re-insert the previous %d; %s", p.OpBatch, p.OpBatch, rateDesc(0, p.OpThink))
	}
	return editDesc(p.OpBatch) + "; " + rateDesc(p.OpRate, 0)
}

func sideDesc(p *plan) string {
	switch p.Workload {
	case "serve":
		return "GET /stats or /histogram, 10% each of the same reader's requests"
	case "ingest":
		return fmt.Sprintf("editor %s; %s", editDesc(editBatch), rateDesc(0, p.SideThink))
	}
	return "due time until the subscriber reads the op's events; one per op"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks is the host's cumulative CPU time and the part of it the
// hypervisor gave to other guests (/proc/stat "steal").
type cpuTicks struct{ total, steal float64 }

func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the share of CPU time stolen between t0 and t: how much of
// the run the host's other guests took.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if d := t.total - t0.total; d > 0 {
		return (t.steal - t0.steal) / d
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// endToEnd turns a measured window into the seven end-to-end metrics
// (setup_s is filled in by the parent).
func endToEnd(o *outcome, rss float64) map[string]metric {
	opL := latenciesMS(o.ops, o.opOpen)
	sideL := latenciesMS(o.sides, o.sideOpen)
	rate := 0.0
	if wall := o.end.Sub(o.start).Seconds(); wall > 0 {
		rate = float64(o.opEdges) / wall
	}
	return map[string]metric{
		"op_p50_ms":   {quantile(opL, 0.5), "ms"},
		"op_p90_ms":   {quantile(opL, 0.9), "ms"},
		"op_edges_s":  {rate, "edges/s"},
		"side_p50_ms": {quantile(sideL, 0.5), "ms"},
		"side_p90_ms": {quantile(slices.Clone(sideL), 0.9), "ms"},
		"rss_mb":      {rss, "MB"},
	}
}
