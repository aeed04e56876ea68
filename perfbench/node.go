package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"hiengine/internal/adapt"
	"hiengine/internal/core"
	"hiengine/internal/delay"
	"hiengine/internal/obs"
	"hiengine/internal/server"
	"hiengine/internal/shard"
	"hiengine/internal/sqlfront"
	"hiengine/internal/srss"
	"hiengine/internal/wire"
)

// workers is every node's worker-slot count: twice the client count, so
// slot waits never build up. The log keeps its defaults: one stream per
// worker and group-commit batches of up to 64 commits.
const workers = 4

// node is one engine over a zero-latency SRSS, optionally served on
// loopback TCP through the SQL frontend.
type node struct {
	name   string
	svc    *srss.Service
	engine *core.Engine
	db     *adapt.DB
	front  *sqlfront.Frontend
	srv    *server.Server
	addr   string
	// shardMap is the encoded map a shard node serves (nil otherwise).
	shardMap []byte
}

func (n *node) config() core.Config {
	return core.Config{Name: n.name, Service: n.svc, Workers: workers}
}

// openNode creates a fresh engine.
func openNode(name string) (*node, error) {
	n := &node{name: name, svc: srss.New(srss.Config{Model: delay.Zero()})}
	e, err := core.Open(n.config())
	if err != nil {
		return nil, err
	}
	n.attach(e)
	return n, nil
}

func (n *node) attach(e *core.Engine) {
	n.engine = e
	n.db = adapt.New(e)
	n.front = sqlfront.NewFrontend("hiengine", n.db)
}

// serve starts the wire server on ln.
func (n *node) serve(ln net.Listener) error {
	if n.shardMap != nil {
		if err := n.engine.SetShardMap(n.shardMap); err != nil {
			return err
		}
	}
	cfg := server.Config{
		Frontend:    n.front,
		WorkerSlots: workers,
		Obs:         n.engine.Obs(),
		// Answers client-forced traces only: untraced requests cost one
		// branch, traced ones return their stage timings.
		Tracer: obs.NewTracer(obs.TracerConfig{Registry: n.engine.Obs()}),
	}
	if n.shardMap != nil {
		mapB := n.shardMap
		cfg.ShardInfo = func() *wire.ShardMap {
			sm, err := wire.DecodeShardMap(mapB)
			if err != nil {
				return nil
			}
			return sm
		}
		cfg.TwoPC = shard.EngineHooks(n.engine)
	}
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	n.srv, n.addr = srv, ln.Addr().String()
	go srv.Serve(ln)
	return nil
}

// restart closes the node and recovers its engine from the log (index
// rebuild included); a served node is served again at the same address.
// Only the recovery itself is timed, after a collection has freed the
// closed engine.
func (n *node) restart() (*core.RecoveryStats, time.Duration, error) {
	served := n.srv != nil
	n.stop()
	runtime.GC()
	t0 := time.Now()
	e, st, err := core.RecoverByName(n.config(), core.RecoverOptions{ReplayThreads: clients})
	took := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("recover %s: %w", n.name, err)
	}
	n.attach(e)
	var schemas []*core.Schema
	for _, name := range e.Tables() {
		if t, err := e.Table(name); err == nil {
			schemas = append(schemas, t.Schema)
		}
	}
	if _, err := n.front.AdoptAll("hiengine", schemas); err != nil {
		return nil, 0, err
	}
	if served {
		ln, err := net.Listen("tcp", n.addr)
		if err != nil {
			return nil, 0, err
		}
		if err := n.serve(ln); err != nil {
			return nil, 0, err
		}
	}
	return st, took, nil
}

// restartAll restarts the nodes one after another and returns their
// recovery statistics and total recovery time.
func restartAll(nodes ...*node) ([]*core.RecoveryStats, time.Duration, error) {
	var stats []*core.RecoveryStats
	var total time.Duration
	for _, n := range nodes {
		st, took, err := n.restart()
		if err != nil {
			return nil, 0, err
		}
		stats, total = append(stats, st), total+took
	}
	return stats, total, nil
}

func (n *node) stop() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
	if n.engine != nil {
		n.engine.Close()
	}
}

// load inserts rows(i) for i in [0, count) through the engine in
// transactions of batch rows, on one loader per client.
func (n *node) load(table string, count int, row func(i int) core.Row) error {
	const batch = 512
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for lo := c * batch; lo < count; lo += clients * batch {
				tx, err := n.db.Begin(c)
				if err != nil {
					errs <- err
					return
				}
				for i := lo; i < lo+batch && i < count; i++ {
					if err := tx.Insert(table, row(i)); err != nil {
						tx.Abort()
						errs <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// exec runs one statement through an in-process frontend session.
func (n *node) exec(sql string) error {
	_, err := n.front.NewSession(0).Exec(sql)
	return err
}

// rowBytes is the size of a row's values: 8 bytes per number, the length
// of each string. It is the user data a write carries.
func rowBytes(row core.Row) int64 {
	var b int64
	for _, v := range row {
		switch v.Kind() {
		case core.KindString:
			b += int64(len(v.Str()))
		case core.KindBytes:
			b += int64(len(v.Bytes()))
		default:
			b += 8
		}
	}
	return b
}

// tableDigest scans a table on the primary index and returns its row count
// and an order-independent hash of its rows.
func tableDigest(db *adapt.DB, table string) (int64, uint64, error) {
	tx, err := db.Begin(0)
	if err != nil {
		return 0, 0, err
	}
	defer tx.Commit() // read-only: the scan's error is the one that matters
	var n int64
	var sum uint64
	var buf []byte
	err = tx.ScanPrefix(table, 0, nil, func(row core.Row) bool {
		n++
		buf = core.EncodeRow(buf[:0], row)
		sum += fnv64(buf)
		return true
	})
	return n, sum, err
}

// sameDigest verifies a table still holds exactly the rows a digest was
// taken of.
func sameDigest(db *adapt.DB, table string, rows int64, sum uint64) error {
	n, s, err := tableDigest(db, table)
	if err != nil {
		return err
	}
	if n != rows || s != sum {
		return fmt.Errorf("table %s: %d rows (digest %x), want %d rows (digest %x)", table, n, s, rows, sum)
	}
	return nil
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// splitmix64 derives reproducible pseudo-random values from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
