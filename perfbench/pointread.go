package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// pointRead: over the loopback wire, prepared autocommit point SELECTs on
// keys drawn uniformly from a preloaded table of about a million rows, a
// working set far beyond the CPU caches. The read path does all the work;
// the WAL and SRSS sit idle. Its restart recovers the million-row log.
type pointRead struct {
	cfg   *config
	rows  int
	n     *node
	cl    *client.Client
	sess  [clients]*client.Session
	sel   [clients]*client.Stmt
	rng   [clients]*rand.Rand
	wrong atomic.Int64 // reads that returned a wrong or missing value
}

func newPointRead(cfg *config) workload {
	w := &pointRead{cfg: cfg, rows: int(1_000_000 * cfg.scale)}
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(cfg.seed*clients + int64(c)))
	}
	return w
}

func (w *pointRead) row(i int) core.Row {
	return core.Row{core.I(int64(i)), core.S(kvValue(w.cfg.seed, int64(i)))}
}

func (w *pointRead) setup() error {
	n, err := openNode("point-read")
	if err != nil {
		return err
	}
	w.n = n
	if err := n.exec(kvSchema); err != nil {
		return err
	}
	if err := n.load("kv", w.rows, w.row); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := n.serve(ln); err != nil {
		return err
	}
	if w.cl, err = client.New(client.Options{Addr: n.addr, PoolSize: clients + 1}); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		if w.sess[c], err = w.cl.Session(); err != nil {
			return err
		}
		if w.sel[c], err = w.sess[c].Prepare("SELECT v FROM kv WHERE id = ?"); err != nil {
			return err
		}
	}
	return nil
}

func (w *pointRead) txn(c, i int, sp *spans) (outcome, error) {
	s := w.sess[c]
	s.Trace(sp != nil)
	k := int64(w.rng[c].Intn(w.rows))
	res, err := w.sel[c].Exec(core.I(k))
	if err != nil {
		return failedTxn, nil
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != kvValue(w.cfg.seed, k) {
		w.wrong.Add(1)
	}
	if sp != nil {
		sp.wireUnit(s.LastTrace())
	}
	return committed, nil
}

// check verifies every read returned its key's value and the table still
// holds every loaded row.
func (w *pointRead) check() error {
	if n := w.wrong.Load(); n > 0 {
		return fmt.Errorf("point-read: %d reads returned a wrong or missing value", n)
	}
	return w.checkRecovered()
}

// breakState drops one loaded row.
func (w *pointRead) breakState() error {
	tx, err := w.n.db.Begin(0)
	if err != nil {
		return err
	}
	if err := tx.DeleteByKey("kv", core.I(int64(w.rows/2))); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (w *pointRead) restart() ([]*core.RecoveryStats, time.Duration, error) {
	return restartAll(w.n)
}

// checkRecovered scans the table: every loaded row, with its value.
func (w *pointRead) checkRecovered() error {
	tx, err := w.n.db.Begin(0)
	if err != nil {
		return err
	}
	defer tx.Commit() // read-only: the scan's error is the one that matters
	next := 0
	var bad error
	err = tx.ScanPrefix("kv", 0, nil, func(r core.Row) bool {
		if r[0].Int() != int64(next) || r[1].Str() != kvValue(w.cfg.seed, int64(next)) {
			bad = fmt.Errorf("point-read: row %d is %v, want key %d", next, r, next)
			return false
		}
		next++
		return true
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	if next != w.rows {
		return fmt.Errorf("point-read: table holds %d rows, want %d", next, w.rows)
	}
	return nil
}

func (w *pointRead) close() {
	for c := range w.sess {
		if w.sess[c] != nil {
			w.sess[c].Close()
		}
	}
	if w.cl != nil {
		w.cl.Close()
	}
	if w.n != nil {
		w.n.stop()
	}
}

func (w *pointRead) registries() []*obs.Registry { return []*obs.Registry{w.n.engine.Obs()} }
func (w *pointRead) services() []*srss.Service   { return []*srss.Service{w.n.svc} }
func (w *pointRead) userBytes() int64            { return 0 }
func (w *pointRead) planCache() (uint64, uint64) {
	st := w.n.front.PlanCacheStats()
	return st.Hits, st.Misses
}
