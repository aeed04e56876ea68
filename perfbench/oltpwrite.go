package main

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"hiengine/internal/client"
	"hiengine/internal/core"
	"hiengine/internal/obs"
	"hiengine/internal/srss"
)

// oltpWrite: over the loopback wire, each transaction is BEGIN, two
// prepared INSERTs and a COMMIT answered at durability (the server's
// pipelined commit path), on key ranges disjoint per client, into a table
// preloaded with rows below those ranges. It runs the whole write path:
// client → wire → server → sqlfront → core commit → WAL group commit →
// SRSS. Its restart recovers the preload and every acknowledged insert.
type oltpWrite struct {
	cfg     *config
	preload int
	n       *node
	cl      *client.Client
	sess    [clients]*client.Session
	ins     [clients]*client.Stmt
	acked   [clients][]bool // acked[c][i]: client c's transaction i committed
	bytes   [clients]int64
	// digest of the table, taken by check for the post-restart comparison.
	rows int64
	sum  uint64
}

func newOLTPWrite(cfg *config) workload {
	return &oltpWrite{cfg: cfg, preload: int(600_000 * cfg.scale)}
}

const kvSchema = "CREATE TABLE kv (id INT, v TEXT, PRIMARY KEY(id))"

// kvValue is the value derived from a key and the seed.
func kvValue(seed, k int64) string {
	return strconv.FormatUint(splitmix64(uint64(seed)^uint64(k)), 36) + "-" +
		strconv.FormatUint(splitmix64(uint64(k)), 36)
}

// clientKeys is where the clients' key ranges begin; preloaded keys lie
// below it.
const clientKeys = 1 << 32

// key is the i-th transaction's first key for client c; the second is +1.
func (w *oltpWrite) key(c, i int) int64 {
	base := int64(splitmix64(uint64(w.cfg.seed)) % (1 << 30))
	return clientKeys + base + int64(c)<<40 + 2*int64(i)
}

func (w *oltpWrite) row(i int) core.Row {
	return core.Row{core.I(int64(i)), core.S(kvValue(w.cfg.seed, int64(i)))}
}

func (w *oltpWrite) setup() error {
	n, err := openNode("oltp-write")
	if err != nil {
		return err
	}
	w.n = n
	if err := n.exec(kvSchema); err != nil {
		return err
	}
	if err := n.load("kv", w.preload, w.row); err != nil {
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
		if w.ins[c], err = w.sess[c].Prepare("INSERT INTO kv VALUES (?, ?)"); err != nil {
			return err
		}
	}
	return nil
}

func (w *oltpWrite) txn(c, i int, sp *spans) (outcome, error) {
	s, ins := w.sess[c], w.ins[c]
	s.Trace(sp != nil)
	k := w.key(c, i)
	if err := s.Begin(); err != nil {
		return failedTxn, nil
	}
	for _, key := range []int64{k, k + 1} {
		v := kvValue(w.cfg.seed, key)
		if _, err := ins.Exec(core.I(key), core.S(v)); err != nil {
			_ = s.Rollback() // the insert's error already failed the transaction
			return failedTxn, nil
		}
		w.bytes[c] += 8 + int64(len(v))
	}
	if err := s.Commit(); err != nil {
		return failedTxn, nil
	}
	for len(w.acked[c]) <= i {
		w.acked[c] = append(w.acked[c], false)
	}
	w.acked[c][i] = true
	if sp != nil {
		sp.wireUnit(s.LastTrace())
	}
	return committed, nil
}

// check reads the table back through the client: the preload plus
// exactly the rows of the acknowledged transactions, each with its
// derived value.
func (w *oltpWrite) check() error {
	want := 0
	for c := range w.acked {
		for _, ok := range w.acked[c] {
			if ok {
				want += 2
			}
		}
	}
	rows, err := w.cl.Query("SELECT id, v FROM kv")
	if err != nil {
		return err
	}
	defer rows.Close()
	got, base := 0, 0
	for rows.Next() {
		r := rows.Row()
		k := r[0].Int()
		if r[1].Str() != kvValue(w.cfg.seed, k) {
			return fmt.Errorf("oltp-write: key %d has value %q", k, r[1].Str())
		}
		if k < clientKeys {
			base++
		} else {
			got++
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if got != want || base != w.preload {
		return fmt.Errorf("oltp-write: read back %d rows, want 2 x %d acknowledged transactions (and %d of %d preloaded rows)",
			got, want/2, base, w.preload)
	}
	w.rows, w.sum, err = tableDigest(w.n.db, "kv")
	return err
}

// breakState drops one acknowledged row.
func (w *oltpWrite) breakState() error {
	_, err := w.cl.Exec("DELETE FROM kv WHERE id = ?", core.I(w.key(0, 0)))
	return err
}

func (w *oltpWrite) restart() ([]*core.RecoveryStats, time.Duration, error) {
	return restartAll(w.n)
}

func (w *oltpWrite) checkRecovered() error {
	return sameDigest(w.n.db, "kv", w.rows, w.sum)
}

func (w *oltpWrite) close() {
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

func (w *oltpWrite) registries() []*obs.Registry { return []*obs.Registry{w.n.engine.Obs()} }
func (w *oltpWrite) services() []*srss.Service   { return []*srss.Service{w.n.svc} }
func (w *oltpWrite) userBytes() int64            { return w.bytes[0] + w.bytes[1] }
func (w *oltpWrite) planCache() (uint64, uint64) {
	st := w.n.front.PlanCacheStats()
	return st.Hits, st.Misses
}
