// Command perfbench is the repository's benchmark: four closed-loop
// workloads over the public surfaces of the engine (wire client, SQL
// frontend, engineapi/adapt, shard router), each printing its end-to-end
// metrics, or with -trace 1 its per-layer metrics, as one JSON line.
//
//	perfbench --workload tpcc --seed 1 --seconds 6 --trace 0
//
// Every run does a fixed amount of work derived from --seconds (the run's
// nominal measuring time) and the workload's nominal rate, with inputs
// drawn from --seed, and checks the engine's outputs. See NOTES.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// Clients is the number of closed-loop client goroutines: no more than the
// benchmark host's two cores.
const clients = 2

// outcome is how one transaction ended.
type outcome int

const (
	committed        outcome = iota
	committedUntimed         // committed, but of a type the latency metrics leave out
	rolledBack               // an intentional rollback (TPC-C NewOrder): not a failure
	failedTxn                // error, busy reject or retry-exhausted conflict
)

// workload is one benchmark workload. A fresh value is built per set-up.
type workload interface {
	// setup builds the node(s) and loads the data.
	setup() error
	// txn runs client c's transaction number i (numbers continue across
	// phases). With sp non-nil the transaction is traced into sp.
	txn(c, i int, sp *spans) (outcome, error)
	// check verifies the engine's state after the timed phases.
	check() error
	// breakState deliberately corrupts the state so check must fail.
	breakState() error
	// restart closes every node and recovers it from its log, returning
	// each node's recovery statistics and the time recovery took.
	restart() ([]*core.RecoveryStats, time.Duration, error)
	// checkRecovered verifies every acknowledged commit survived restart.
	checkRecovered() error
	close()

	registries() []*obs.Registry
	services() []*srss.Service
	// userBytes is the cumulative byte size of the row values the
	// workload's transactions wrote.
	userBytes() int64
	// planCache is the cumulative plan-cache hits and misses.
	planCache() (hits, misses uint64)
}

// spec describes a workload: its constructor and its nominal rate, the
// transactions one second of --seconds stands for (about what the
// benchmark host commits per second).
type spec struct {
	make func(cfg *config) workload
	rate float64
}

var specs = map[string]spec{
	"oltp-write": {newOLTPWrite, 16000},
	"point-read": {newPointRead, 60000},
	"tpcc":       {newTPCC, 8000},
	"xshard-2pc": {newXShard, 6000},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rev      string
	// scale multiplies data sizes and the work per run (1 for real runs;
	// tests use a tiny scale).
	scale float64
	// setups and restarts are how many set-ups and recoveries are timed
	// per run; the medians are reported.
	setups, restarts int
	// breakCheck corrupts the state before the checks (test hook).
	breakCheck bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseResult is one timed phase: its duration, transaction counts, and
// the latency of every timed committed transaction.
type phaseResult struct {
	attempted, committed, failed int
	secs                         float64
	latMS                        []float64
}

// tps is committed transactions over the phase's wall time. Averaging the
// whole phase spreads periodic costs (Go GC cycles, engine version GC)
// evenly instead of letting them alias with sub-phase boundaries.
func (p *phaseResult) tps() float64 { return ratio(float64(p.committed), p.secs) }

// latency is the q-quantile of every latency sample, in ms.
func (p *phaseResult) latency(q float64) float64 { return quantile(p.latMS, q) }

// deciles are the 10th..90th latency percentiles, in ms.
func (p *phaseResult) deciles() []float64 {
	var out []float64
	for q := 1; q <= 9; q++ {
		out = append(out, p.latency(float64(q)/10))
	}
	return out
}

// drive runs perClient closed-loop transactions on each client and times
// the phase. next numbers the transactions of client c; it continues
// across phases.
func drive(w workload, perClient int, next []int, sp []*spans) (*phaseResult, error) {
	var wg sync.WaitGroup
	lat := make([][]float64, clients)
	counts := make([][failedTxn + 1]int, clients)
	errs := make([]error, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var s *spans
			if sp != nil {
				s = sp[c]
			}
			lat[c] = make([]float64, 0, perClient)
			for j := 0; j < perClient; j++ {
				i := next[c]
				next[c]++
				start := time.Now()
				out, err := w.txn(c, i, s)
				if err != nil {
					errs[c] = fmt.Errorf("client %d txn %d: %w", c, i, err)
					return
				}
				if out == committed {
					lat[c] = append(lat[c], float64(time.Since(start))/1e6)
				}
				counts[c][out]++
			}
		}(c)
	}
	wg.Wait()
	res := &phaseResult{secs: time.Since(t0).Seconds()}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		n := counts[c]
		res.attempted += n[committed] + n[committedUntimed] + n[rolledBack] + n[failedTxn]
		res.committed += n[committed] + n[committedUntimed]
		res.failed += n[failedTxn]
		res.latMS = append(res.latMS, lat[c]...)
	}
	return res, nil
}

// run executes one benchmark run and returns its result line plus a
// human-readable info line.
func run(cfg *config) (*result, string, error) {
	sp, ok := specs[cfg.workload]
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	perClient := int(float64(cfg.seconds) * sp.rate * cfg.scale / clients)
	if perClient < 1 {
		perClient = 1
	}

	// Set up several times; keep the last node(s) for the run.
	var w workload
	var setupS []float64
	for k := 0; k < cfg.setups; k++ {
		if w != nil {
			w.close()
		}
		w = sp.make(cfg)
		liveHeapMiB()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, "", fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { w.close() }()

	next := make([]int, clients)
	liveHeapMiB()
	p0 := takeProbe(w.registries(), w.services())
	ub0 := w.userBytes()
	plain, err := drive(w, perClient, next, nil)
	if err != nil {
		return nil, "", err
	}
	p1 := takeProbe(w.registries(), w.services())
	ub1 := w.userBytes()
	attempted, failed := plain.attempted, plain.failed

	var traced *phaseResult
	var tsp []*spans
	if cfg.trace {
		tsp = make([]*spans, clients)
		for c := range tsp {
			tsp[c] = newSpans()
		}
		liveHeapMiB()
		if traced, err = drive(w, perClient, next, tsp); err != nil {
			return nil, "", err
		}
		attempted += traced.attempted
		failed += traced.failed
	}
	pEnd := takeProbe(w.registries(), w.services())
	hits, misses := w.planCache()
	heap := liveHeapMiB()

	correct := true
	var problems []string
	if cfg.breakCheck {
		if err := w.breakState(); err != nil {
			return nil, "", fmt.Errorf("break state: %w", err)
		}
	}
	if err := w.check(); err != nil {
		correct = false
		problems = append(problems, err.Error())
	}

	var recS []float64
	var recStats [][]*core.RecoveryStats
	for r := 0; r < cfg.restarts; r++ {
		st, took, err := w.restart()
		if err != nil {
			return nil, "", fmt.Errorf("restart: %w", err)
		}
		recS = append(recS, took.Seconds())
		recStats = append(recStats, st)
	}
	if cfg.restarts > 0 {
		if err := w.checkRecovered(); err != nil {
			correct = false
			problems = append(problems, "after restart: "+err.Error())
		}
	}

	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !cfg.trace {
		put("setup_s", "s", median(setupS))
		put("tps", "1/s", plain.tps())
		put("txn_p50_ms", "ms", plain.latency(0.50))
		put("txn_p90_ms", "ms", plain.latency(0.90))
		put("recovery_s", "s", median(recS))
		put("heap_mib", "MiB", heap)
	} else {
		layerMetrics(put, &tracedRun{
			plain: phase{p0, p1}, whole: phase{p0, pEnd},
			txns: float64(plain.attempted), userBytes: float64(ub1 - ub0),
			tpsPlain: plain.tps(), tpsTraced: traced.tps(),
			planHits: hits, planMisses: misses,
			spans: mergeSpans(tsp), recovery: recStats,
		})
	}

	info := map[string]any{
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"trace":           cfg.trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"git_rev":         cfg.rev,
		"src_sha256":      sourceDigest(),
		"clients":         clients,
		"txns_per_phase":  plain.attempted,
		"latency_samples": len(plain.latMS),
		"phase_s":         plain.secs,
		"latency_deciles": plain.deciles(),
		"setup_s_all":     setupS,
		"recovery_s_all":  recS,
		"flush_policy":    fmt.Sprintf("group-commit batch 64, one log stream per worker, %d workers per node, delay.Zero", workers),
		"fail_pct":        100 * ratio(float64(failed), float64(attempted)),
	}
	if len(problems) > 0 {
		info["check_failures"] = problems
	}
	ib, _ := json.Marshal(info)
	return res, "# " + string(ib), nil
}

// mergeSpans folds the per-client span sets into one.
func mergeSpans(ss []*spans) *spans {
	out := newSpans()
	for _, s := range ss {
		for k, v := range s.ns {
			out.ns[k] = append(out.ns[k], v...)
		}
		out.wall += s.wall
		out.uncov += s.uncov
		out.crossTried += s.crossTried
		out.crossAborted += s.crossAborted
	}
	return out
}

// tracedRun is what a traced run measured: the untraced phase and both
// phases as probe differences, the untraced phase's transactions and user
// bytes, both phases' rates, the plan cache, the spans of the traced
// phase, and the statistics of every restart.
type tracedRun struct {
	plain, whole         phase
	txns, userBytes      float64
	tpsPlain, tpsTraced  float64
	planHits, planMisses uint64
	spans                *spans
	recovery             [][]*core.RecoveryStats
}

// layerMetrics fills the per-layer metrics of a traced run. Counts come
// from the untraced phase (tracing adds bytes and allocations of its own);
// stage times come from the traced phase.
func layerMetrics(put func(string, string, float64), tr *tracedRun) {
	ph, whole, sp, txns := tr.plain, tr.whole, tr.spans, tr.txns
	perTxn := func(v float64) float64 { return ratio(v, txns) }

	put("client.net_us", "us", sp.medianUS("client.net"))
	put("wire.bytes_in_per_txn", "B", perTxn(ph.val("server.bytes_in")))
	put("wire.bytes_out_per_txn", "B", perTxn(ph.val("server.bytes_out")))

	put("server.frame_read_us", "us", sp.medianUS("frame_read"))
	put("server.slot_wait_us", "us", sp.medianUS("slot_wait"))
	put("server.respond_us", "us", sp.medianUS("respond"))
	put("server.busy_rejects", "count", whole.val("server.busy_rejects"))

	put("sqlfront.plan_us", "us", sp.medianUS("plan_cache"))
	put("sqlfront.exec_us", "us", sp.medianUS("exec"))
	put("sqlfront.plan_hit_pct", "%", 100*ratio(float64(tr.planHits), float64(tr.planHits+tr.planMisses)))

	put("core.begin_us", "us", sp.medianUS("core.begin"))
	put("core.read_us", "us", sp.medianUS("core.read"))
	put("core.write_us", "us", sp.medianUS("core.write"))
	put("core.scan_us", "us", sp.medianUS("core.scan"))
	put("core.commit_us", "us", sp.medianUS("core.commit"))
	put("core.conflict_pct", "%", 100*ratio(ph.val("core.conflicts"), ph.val("core.commits")+ph.val("core.aborts")))
	put("core.gc_reclaimed_per_txn", "count", perTxn(ph.val("core.gc_reclaimed_versions")))
	put("core.gc_pause_us", "us", ph.mean("core.gc_pause_ns")/1e3)
	var replay, index, records []float64
	for _, st := range tr.recovery {
		var r, i, n float64
		for _, s := range st {
			r += s.ReplayDuration.Seconds()
			i += s.IndexDuration.Seconds()
			n += float64(s.RecordsScanned)
		}
		replay, index, records = append(replay, r), append(index, i), append(records, n)
	}
	put("core.recovery_replay_s", "s", median(replay))
	put("core.recovery_index_s", "s", median(index))
	put("core.recovery_records", "count", median(records))

	put("wal.batch_txns", "count", ph.mean("wal.batch_txns"))
	put("wal.bytes_per_txn", "B", perTxn(ph.histSum("wal.batch_bytes")))
	put("wal.commit_us", "us", ph.mean("wal.commit_latency_ns")/1e3)
	put("wal.enqueue_us", "us", sp.medianUS("wal_enqueue"))
	put("wal.group_commit_us", "us", sp.medianUS("group_commit"))
	put("wal.durable_us", "us", sp.medianUS("durable"))

	put("srss.appends_per_txn", "count", perTxn(float64(ph.b.srssAppends-ph.a.srssAppends)))
	put("srss.write_amp", "x", ratio(float64(ph.b.srssBytes-ph.a.srssBytes), tr.userBytes))
	put("srss.replicate_us", "us", sp.medianUS("srss_replicate"))
	put("srss.reads", "count", float64(ph.b.srssReads-ph.a.srssReads))

	put("shard.single_commit_us", "us", sp.medianUS("shard.single_commit"))
	put("shard.cross_commit_us", "us", sp.medianUS("shard.cross_commit"))
	put("shard.prepare_us", "us", sp.medianUS("shard.prepare"))
	put("shard.decide_us", "us", sp.medianUS("shard.decide"))
	put("shard.fanout_us", "us", sp.medianUS("shard.fanout"))
	put("shard.cross_abort_pct", "%", 100*ratio(float64(sp.crossAborted), float64(sp.crossTried)))

	put("go.allocs_per_txn", "count", perTxn(float64(ph.b.allocs-ph.a.allocs)))
	put("go.alloc_bytes_per_txn", "B", perTxn(float64(ph.b.allocBytes-ph.a.allocBytes)))
	put("go.gc_cpu_pct", "%", 100*ratio(ph.b.gcCPU-ph.a.gcCPU, ph.b.totalCPU-ph.a.totalCPU))
	put("go.gc_cycles_per_ktxn", "count", 1000*perTxn(float64(ph.b.gcCycles-ph.a.gcCycles)))
	put("go.sched_p90_us", "us", ph.schedP90())
	put("go.cpu_us_per_txn", "us", perTxn(float64(ph.b.cpu-ph.a.cpu)/1e3))

	put("trace.unattributed_pct", "%", 100*ratio(float64(sp.uncov), float64(sp.wall)))
	put("trace.overhead_pct", "%", 100*ratio(tr.tpsPlain-tr.tpsTraced, tr.tpsPlain))
}

// sourceDigest hashes the repository's Go sources and module files, so a
// run is tied to the exact code it measured even outside a git checkout.
func sourceDigest() string {
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("perfbench"); err == nil {
			root = "."
		}
	}
	// Unreadable entries are skipped: the digest records the run, it does
	// not check it.
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if fd, err := os.Open(f); err == nil {
			_, _ = io.Copy(h, fd)
			fd.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	cfg := &config{scale: 1, setups: 3, restarts: 5}
	flag.StringVar(&cfg.workload, "workload", "", "oltp-write, point-read, tpcc or xshard-2pc")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 8, "nominal measuring time; sets the fixed work per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.rev, "rev", "unknown", "source revision recorded with the run")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, info, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(info)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
