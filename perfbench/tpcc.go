package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hiengine/internal/core"
	"hiengine/internal/engineapi"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
	"hiengine/internal/workload/tpcc"
)

// tpccW: TPC-C in process through engineapi/adapt (no wire), two
// warehouses with one home warehouse per client thread, at the paper's
// transaction mix. It runs MVCC, multi-record commits, index scans and
// version GC; the wire, server and SQL frontend do no work.
type tpccW struct {
	cfg    *config
	scale  tpcc.Scale
	n      *node
	db     *timedDB
	drv    *tpcc.Driver
	rng    [clients]*rand.Rand
	tables map[string][2]uint64 // digest (rows, hash) taken by check
}

const tpccWarehouses = clients

// newTPCC loads a reduced scale: the phase's own writes then dominate the
// heap and the log, which keeps the live heap near 400 MiB while recovery
// still replays over 1 s of log.
func newTPCC(cfg *config) workload {
	w := &tpccW{cfg: cfg, scale: tpcc.Scale{
		Districts:  tpcc.DistrictsPerWarehouse,
		Customers:  scaled(100, cfg.scale),
		Items:      scaled(5000, cfg.scale),
		InitOrders: scaled(100, cfg.scale),
	}}
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(cfg.seed*clients + int64(c)))
	}
	return w
}

// scaled is n·f, at least 10.
func scaled(n int, f float64) int {
	return max(10, int(float64(n)*f))
}

func (w *tpccW) setup() error {
	n, err := openNode("tpcc")
	if err != nil {
		return err
	}
	w.n = n
	if err := tpcc.Load(n.db, tpccWarehouses, w.scale, clients); err != nil {
		return err
	}
	w.db = &timedDB{DB: n.db, tracer: obs.NewTracer(obs.TracerConfig{})}
	w.drv = tpcc.NewDriver(tpcc.Config{
		DB: w.db, Warehouses: tpccWarehouses, Threads: clients, Scale: w.scale,
		Seed: w.cfg.seed, Partitioned: true,
	})
	return nil
}

// pick draws a transaction type at the paper's mix.
func pick(rng *rand.Rand) tpcc.TxnType {
	n := rng.Intn(100)
	for t, pct := range tpcc.Mix {
		if n < pct {
			return tpcc.TxnType(t)
		}
		n -= pct
	}
	return tpcc.TxnNewOrder
}

func (w *tpccW) txn(c, i int, sp *spans) (outcome, error) {
	w.db.sp[c] = sp
	w.db.conflicted[c] = false
	tt := pick(w.rng[c])
	ok, err := w.drv.RunOne(c, tt, 0)
	switch {
	case err != nil:
		return failedTxn, err
	case ok && tt == tpcc.TxnNewOrder:
		return committed, nil
	case ok:
		// TPC-C states response times per transaction type; the latency
		// metrics follow NewOrder, the type tpmC counts.
		return committedUntimed, nil
	case w.db.conflicted[c]:
		return failedTxn, nil // conflict retries exhausted
	default:
		return rolledBack, nil
	}
}

// check runs the driver's consistency check and TPC-C consistency
// conditions 1-3 per district, then digests every table for the restart.
func (w *tpccW) check() error {
	w.db.sp = [clients]*spans{}
	if err := w.drv.Verify(); err != nil {
		return err
	}
	if err := w.conditions(); err != nil {
		return err
	}
	w.tables = map[string][2]uint64{}
	for _, s := range tpcc.Schemas(true) {
		n, sum, err := tableDigest(w.n.db, s.Name)
		if err != nil {
			return err
		}
		w.tables[s.Name] = [2]uint64{uint64(n), sum}
	}
	return nil
}

// conditions checks TPC-C consistency conditions 1-3:
// W_YTD = Σ D_YTD; D_NEXT_O_ID-1 = max(O_ID) = max(NO_O_ID); and
// max(NO_O_ID)-min(NO_O_ID)+1 = the number of NEW_ORDER rows.
func (w *tpccW) conditions() error {
	tx, err := w.n.db.Begin(0)
	if err != nil {
		return err
	}
	defer tx.Commit() // read-only: the reads' errors are the ones that matter
	for wh := int64(1); wh <= tpccWarehouses; wh++ {
		wRow, err := tx.GetByKey(tpcc.TWarehouse, 0, core.I(wh))
		if err != nil {
			return err
		}
		var dYTD float64
		for d := int64(1); d <= int64(w.scale.Districts); d++ {
			dRow, err := tx.GetByKey(tpcc.TDistrict, 0, core.I(wh), core.I(d))
			if err != nil {
				return err
			}
			dYTD += dRow[5].Float()
			nextO := dRow[6].Int()
			var maxO int64
			if err := tx.ScanPrefix(tpcc.TOrder, 0, []core.Value{core.I(wh), core.I(d)}, func(r core.Row) bool {
				maxO = max(maxO, r[2].Int())
				return true
			}); err != nil {
				return err
			}
			var minNO, maxNO, count int64 = math.MaxInt64, 0, 0
			if err := tx.ScanPrefix(tpcc.TNewOrder, 0, []core.Value{core.I(wh), core.I(d)}, func(r core.Row) bool {
				minNO, maxNO = min(minNO, r[2].Int()), max(maxNO, r[2].Int())
				count++
				return true
			}); err != nil {
				return err
			}
			if maxO != nextO-1 || (count > 0 && maxNO != maxO) {
				return fmt.Errorf("tpcc condition 2: w=%d d=%d D_NEXT_O_ID-1=%d max(O_ID)=%d max(NO_O_ID)=%d",
					wh, d, nextO-1, maxO, maxNO)
			}
			if count > 0 && maxNO-minNO+1 != count {
				return fmt.Errorf("tpcc condition 3: w=%d d=%d NO_O_ID %d..%d but %d NEW_ORDER rows",
					wh, d, minNO, maxNO, count)
			}
		}
		if wYTD := wRow[7].Float(); math.Abs(wYTD-dYTD) > 0.005 {
			return fmt.Errorf("tpcc condition 1: w=%d W_YTD=%.2f, sum of D_YTD=%.2f", wh, wYTD, dYTD)
		}
	}
	return nil
}

// breakState credits warehouse 1 without crediting a district.
func (w *tpccW) breakState() error {
	tx, err := w.n.db.Begin(0)
	if err != nil {
		return err
	}
	row, err := tx.GetByKey(tpcc.TWarehouse, 0, core.I(1))
	if err != nil {
		tx.Abort()
		return err
	}
	row = append(core.Row{}, row...)
	row[7] = core.F(row[7].Float() + 1)
	if err := tx.UpdateByKey(tpcc.TWarehouse, 0, []core.Value{core.I(1)}, row); err != nil {
		return err
	}
	return tx.Commit()
}

func (w *tpccW) restart() ([]*core.RecoveryStats, time.Duration, error) {
	return restartAll(w.n)
}

// checkRecovered verifies every table matches its pre-restart digest and
// the consistency conditions still hold.
func (w *tpccW) checkRecovered() error {
	if w.tables == nil {
		return errors.New("tpcc: no pre-restart digest")
	}
	for name, d := range w.tables {
		if err := sameDigest(w.n.db, name, int64(d[0]), d[1]); err != nil {
			return err
		}
	}
	return w.conditions()
}

func (w *tpccW) close() {
	if w.n != nil {
		w.n.stop()
	}
}

func (w *tpccW) registries() []*obs.Registry { return []*obs.Registry{w.n.engine.Obs()} }
func (w *tpccW) services() []*srss.Service   { return []*srss.Service{w.n.svc} }
func (w *tpccW) userBytes() int64 {
	var b int64
	for _, n := range w.db.bytes {
		b += n
	}
	return b
}
func (w *tpccW) planCache() (uint64, uint64) { return 0, 0 }

// timedDB wraps the engineapi.DB the TPC-C driver calls. It always notes
// conflicts (to tell exhausted retries from intentional rollbacks) and
// the bytes written; on a traced client it also times every call as a
// core span and carries a trace through the commit pipeline for the WAL
// and SRSS stages.
type timedDB struct {
	engineapi.DB
	tracer     *obs.Tracer
	sp         [clients]*spans
	conflicted [clients]bool
	bytes      [clients]int64
}

func (d *timedDB) Begin(worker int) (engineapi.Txn, error) {
	t := &timedTxn{d: d, worker: worker, sp: d.sp[worker]}
	t.t0 = t.start()
	tx, err := d.DB.Begin(worker)
	if err != nil {
		return nil, err
	}
	t.Txn = tx
	if t.sp != nil {
		t.done("core.begin", t.t0, nil)
		if tt, ok := tx.(engineapi.Traceable); ok {
			t.tr = d.tracer.Start(0, true)
			tt.SetTrace(t.tr)
		}
	}
	return t, nil
}

type timedTxn struct {
	engineapi.Txn
	d       *timedDB
	worker  int
	sp      *spans
	tr      *obs.Trace
	t0      time.Time
	covered int64
}

// start opens a core span on a traced client.
func (t *timedTxn) start() time.Time {
	if t.sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// done closes a core span and notes a conflict error.
func (t *timedTxn) done(name string, t0 time.Time, err error) error {
	if t.sp != nil {
		ns := int64(time.Since(t0))
		t.sp.add(name, ns)
		t.covered += ns
	}
	if err != nil && errors.Is(err, engineapi.ErrConflict) {
		t.d.conflicted[t.worker] = true
	}
	return err
}

// end closes a traced transaction: its WAL/SRSS stages and its client
// wall time.
func (t *timedTxn) end(commit bool) {
	if t.sp == nil {
		return
	}
	if t.tr != nil {
		if commit {
			t.tr.VisitStages(func(s obs.Stage, _, dur int64) { t.sp.add(s.String(), dur) })
		}
		t.tr.Finish()
		t.tr = nil
	}
	wall := int64(time.Since(t.t0))
	t.sp.unit(wall, wall-t.covered)
}

func (t *timedTxn) Commit() error {
	err := t.done("core.commit", t.start(), t.Txn.Commit())
	t.end(err == nil)
	return err
}

func (t *timedTxn) Abort() error {
	err := t.Txn.Abort()
	t.end(false)
	return err
}

func (t *timedTxn) Insert(table string, row core.Row) error {
	t.d.bytes[t.worker] += rowBytes(row)
	t0 := t.start()
	return t.done("core.write", t0, t.Txn.Insert(table, row))
}

func (t *timedTxn) GetByKey(table string, idx int, key ...core.Value) (core.Row, error) {
	t0 := t.start()
	row, err := t.Txn.GetByKey(table, idx, key...)
	return row, t.done("core.read", t0, err)
}

func (t *timedTxn) UpdateByKey(table string, idx int, key []core.Value, row core.Row) error {
	t.d.bytes[t.worker] += rowBytes(row)
	t0 := t.start()
	return t.done("core.write", t0, t.Txn.UpdateByKey(table, idx, key, row))
}

func (t *timedTxn) DeleteByKey(table string, key ...core.Value) error {
	t0 := t.start()
	return t.done("core.write", t0, t.Txn.DeleteByKey(table, key...))
}

func (t *timedTxn) ScanPrefix(table string, idx int, prefix []core.Value, fn func(core.Row) bool) error {
	t0 := t.start()
	return t.done("core.scan", t0, t.Txn.ScanPrefix(table, idx, prefix, fn))
}
