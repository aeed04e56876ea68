package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/shard"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// xshard: two shard nodes in one process over loopback, driven through
// shard.Router by two clients, each with its own router (one connection
// per shard). 70% of the transactions move money between two accounts on
// one shard; 30% move it between shards and commit by 2PC. With that mix
// the median falls inside the single-shard latencies and p90 inside the
// cross-shard ones, not on the boundary between the two. Each client owns
// its accounts, so no transaction conflicts. This is the only workload
// that runs the router and the 2PC prepare/decide/fan-out.
type xshard struct {
	cfg     *config
	perPart int // accounts per client per shard
	nodes   [2]*node
	m       *shard.Map
	routers [clients]*shard.Router
	rng     [clients]*rand.Rand
	// accts[c][s] are client c's accounts on shard s; bal is the client's
	// model of every balance it owns.
	accts [clients][2][]int64
	bal   [clients]map[int64]int64
	wrong [clients]int // reads that disagreed with the model
	bytes [clients]int64
}

const initialBalance = 1000

func newXShard(cfg *config) workload {
	w := &xshard{cfg: cfg, perPart: scaled(150_000, cfg.scale)}
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(cfg.seed*clients + int64(c)))
	}
	return w
}

func (w *xshard) setup() error {
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	m, err := shard.NewMap(1, addrs)
	if err != nil {
		return err
	}
	w.m = m
	// Accounts: client c owns keys c<<32 + j, placed by the shard map.
	var rows [2][]core.Row
	for c := 0; c < clients; c++ {
		w.bal[c] = map[int64]int64{}
		for j := int64(0); len(w.accts[c][0]) < w.perPart || len(w.accts[c][1]) < w.perPart; j++ {
			k := int64(c)<<32 + j
			s := m.ShardOfInt(k)
			if len(w.accts[c][s]) == w.perPart {
				continue
			}
			w.accts[c][s] = append(w.accts[c][s], k)
			w.bal[c][k] = initialBalance
			rows[s] = append(rows[s], core.Row{core.I(k), core.I(initialBalance)})
		}
	}
	for i := range w.nodes {
		n, err := openNode(fmt.Sprintf("shard-%d", i))
		if err != nil {
			lns[i].Close()
			return err
		}
		w.nodes[i] = n
		sm := m.ShardMap
		sm.SelfID = uint32(i)
		n.shardMap = (&shard.Map{ShardMap: sm}).Encode()
		if err := n.exec("CREATE TABLE acct (id INT, bal INT, PRIMARY KEY(id))"); err != nil {
			return err
		}
		if err := n.load("acct", len(rows[i]), func(j int) core.Row { return rows[i][j] }); err != nil {
			return err
		}
		if err := n.serve(lns[i]); err != nil {
			return err
		}
	}
	for c := range w.routers {
		w.routers[c] = w.router(c)
	}
	return nil
}

// router builds client c's coordinator: its own gtid seed, one pooled
// connection per shard.
func (w *xshard) router(c int) *shard.Router {
	return shard.NewRouter(w.m, client.Options{Addr: "routed", PoolSize: 1, Seed: uint64(c + 1)}, nil)
}

func (w *xshard) txn(c, i int, sp *spans) (outcome, error) {
	rng, r := w.rng[c], w.routers[c]
	cross := rng.Intn(10) < 3
	var a, b int64
	if cross {
		// Shard 0 first: participants take worker slots in ascending shard
		// order, so 2PC writers never wait on each other in a cycle.
		a = w.accts[c][0][rng.Intn(w.perPart)]
		b = w.accts[c][1][rng.Intn(w.perPart)]
	} else {
		s := rng.Intn(2)
		a = w.accts[c][s][rng.Intn(w.perPart)]
		for b = a; b == a; {
			b = w.accts[c][s][rng.Intn(w.perPart)]
		}
	}
	amt := int64(rng.Intn(100) + 1)
	if rng.Intn(2) == 0 {
		amt = -amt
	}
	r.Trace(sp != nil)
	t0 := time.Now()
	var covered int64
	tx := r.Begin()
	newA, newB, err := w.transfer(c, tx, a, b, amt, sp, &covered)
	if err != nil {
		_ = tx.Rollback() // the statement's error already failed the transaction
		if sp != nil && cross {
			sp.crossTried++
			sp.crossAborted++
		}
		return failedTxn, nil
	}
	c0 := time.Now()
	err = tx.Commit()
	if sp != nil {
		commitNS := int64(time.Since(c0))
		wall := int64(time.Since(t0))
		w.traceCommit(sp, r, cross, err, commitNS)
		sp.unit(wall, wall-covered-commitNS)
	}
	if err != nil {
		return failedTxn, nil
	}
	w.bal[c][a], w.bal[c][b] = newA, newB
	w.bytes[c] += 32 // two (id, bal) rows
	return committed, nil
}

// transfer reads both balances, checks them against the client's model and
// writes the moved amount, returning the new balances.
func (w *xshard) transfer(c int, tx *shard.Txn, a, b, amt int64, sp *spans, covered *int64) (int64, int64, error) {
	exec := func(k int64, sql string, args ...core.Value) (*wire.Result, error) {
		if sp == nil {
			return tx.Exec(k, sql, args...)
		}
		t0 := time.Now()
		res, err := tx.Exec(k, sql, args...)
		*covered += int64(time.Since(t0))
		return res, err
	}
	var bal [2]int64
	for j, k := range []int64{a, b} {
		res, err := exec(k, "SELECT bal FROM acct WHERE id = ?", core.I(k))
		if err != nil {
			return 0, 0, err
		}
		if len(res.Rows) != 1 {
			return 0, 0, fmt.Errorf("xshard: account %d has %d rows", k, len(res.Rows))
		}
		bal[j] = res.Rows[0][0].Int()
		if bal[j] != w.bal[c][k] {
			w.wrong[c]++
		}
	}
	newA, newB := bal[0]+amt, bal[1]-amt
	if _, err := exec(a, "UPDATE acct SET bal = ? WHERE id = ?", core.I(newA), core.I(a)); err != nil {
		return 0, 0, err
	}
	if _, err := exec(b, "UPDATE acct SET bal = ? WHERE id = ?", core.I(newB), core.I(b)); err != nil {
		return 0, 0, err
	}
	return newA, newB, nil
}

// traceCommit records a traced commit: its span, the 2PC phases of the
// stitched distributed trace, and every participant's server stages.
func (w *xshard) traceCommit(sp *spans, r *shard.Router, cross bool, err error, commitNS int64) {
	if cross {
		sp.crossTried++
		if err != nil {
			sp.crossAborted++
		}
		sp.add("shard.cross_commit", commitNS)
	} else {
		sp.add("shard.single_commit", commitNS)
	}
	tree := r.LastDistTrace()
	if tree == nil {
		return
	}
	if cross && err == nil {
		sp.add("shard.prepare", int64(tree.Prepare))
		sp.add("shard.decide", int64(tree.Decide))
		sp.add("shard.fanout", int64(tree.Fanout))
	}
	for _, h := range tree.Hops {
		if h.Info != nil {
			sp.stages(h.Info)
		}
	}
}

// check verifies, on each engine, that every balance matches the clients'
// models, the total is conserved, and that a recovery sweep leaves no
// transaction in doubt.
func (w *xshard) check() error {
	for c := range w.wrong {
		if w.wrong[c] > 0 {
			return fmt.Errorf("xshard: client %d read %d balances that disagree with its commits", c, w.wrong[c])
		}
	}
	return w.checkState()
}

func (w *xshard) checkState() error {
	var total, accounts int64
	for i, n := range w.nodes {
		tx, err := n.db.Begin(0)
		if err != nil {
			return err
		}
		var bad error
		err = tx.ScanPrefix("acct", 0, nil, func(r core.Row) bool {
			k, bal := r[0].Int(), r[1].Int()
			total += bal
			accounts++
			c := int(k >> 32)
			if c >= clients || w.bal[c][k] != bal {
				bad = fmt.Errorf("xshard: shard %d account %d balance %d, want %d", i, k, bal, w.bal[c%clients][k])
				return false
			}
			return true
		})
		tx.Commit() // read-only: the scan's error is the one that matters
		if err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
	}
	want := int64(clients * 2 * w.perPart)
	if accounts != want || total != want*initialBalance {
		return fmt.Errorf("xshard: %d accounts hold %d, want %d accounts holding %d", accounts, total, want, want*initialBalance)
	}
	rep, err := w.routers[0].Recover()
	if err != nil {
		return err
	}
	for i, n := range w.nodes {
		if d := n.engine.InDoubt(); len(d) > 0 {
			return fmt.Errorf("xshard: shard %d has %d in-doubt transactions after recovery (sweep found %d)", i, len(d), rep.InDoubt)
		}
	}
	return nil
}

// breakState credits one account out of thin air.
func (w *xshard) breakState() error {
	k := w.accts[0][0][0]
	tx, err := w.nodes[0].db.Begin(0)
	if err != nil {
		return err
	}
	if err := tx.UpdateByKey("acct", 0, []core.Value{core.I(k)}, core.Row{core.I(k), core.I(w.bal[0][k] + 1)}); err != nil {
		return err
	}
	return tx.Commit()
}

// restart recovers both shard nodes; the routers reconnect afresh.
func (w *xshard) restart() ([]*core.RecoveryStats, time.Duration, error) {
	for _, r := range w.routers {
		r.Close()
	}
	stats, took, err := restartAll(w.nodes[0], w.nodes[1])
	for c := range w.routers {
		w.routers[c] = w.router(c)
	}
	return stats, took, err
}

func (w *xshard) checkRecovered() error { return w.checkState() }

func (w *xshard) close() {
	for _, r := range w.routers {
		if r != nil {
			r.Close()
		}
	}
	for _, n := range w.nodes {
		if n != nil {
			n.stop()
		}
	}
}

func (w *xshard) registries() []*obs.Registry {
	return []*obs.Registry{w.nodes[0].engine.Obs(), w.nodes[1].engine.Obs()}
}

func (w *xshard) services() []*srss.Service {
	return []*srss.Service{w.nodes[0].svc, w.nodes[1].svc}
}

func (w *xshard) userBytes() int64 { return w.bytes[0] + w.bytes[1] }

func (w *xshard) planCache() (uint64, uint64) {
	var h, m uint64
	for _, n := range w.nodes {
		st := n.front.PlanCacheStats()
		h, m = h+st.Hits, m+st.Misses
	}
	return h, m
}
