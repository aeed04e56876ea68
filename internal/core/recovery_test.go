package core

import (
	"errors"
	"fmt"
	"testing"

	"hiengine/internal/srss"
)

// snapshotTable captures id -> (name, balance) of all visible rows.
func snapshotTable(t *testing.T, e *Engine, name string) map[int64][2]interface{} {
	t.Helper()
	tbl, err := e.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	out := make(map[int64][2]interface{})
	if err := tx.ScanKey(tbl, 0, nil, nil, func(_ RID, row Row) bool {
		out[row[0].Int()] = [2]interface{}{row[1].Str(), row[2].Int()}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func recoverEngine(t *testing.T, e *Engine, opt RecoverOptions) (*Engine, *RecoveryStats) {
	t.Helper()
	manifestID := e.ManifestID()
	svc := e.Service()
	e.Close() // simulate crash after draining in-flight I/O
	e2, stats, err := Recover(Config{Service: svc, Workers: 16, SegmentSize: 1 << 20}, manifestID, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	return e2, stats
}

func TestRecoveryBasicEquivalence(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 200; i++ {
		insertUser(t, e, tbl, int(i%8), i, fmt.Sprintf("user-%d", i), i*3)
	}
	// Mix in updates and deletes.
	for i := int64(0); i < 200; i += 4 {
		tx, _ := e.Begin(int(i % 8))
		rid, _, err := tx.GetByKey(tbl, 0, I(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			if err := tx.Delete(tbl, rid); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tx.Update(tbl, rid, Row{I(i), S(fmt.Sprintf("upd-%d", i)), I(i * 7)}); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tx)
	}
	want := snapshotTable(t, e, "users")

	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 4})
	got := snapshotTable(t, e2, "users")
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("row %d: got %v want %v", id, got[id], w)
		}
	}
	if stats.RecordsScanned == 0 {
		t.Fatal("no records replayed")
	}
	// New transactions work after recovery (CSN advanced past replay).
	e2tbl, _ := e2.Table("users")
	tx, err := e2.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(e2tbl, Row{I(10001), S("post-recovery"), I(1)}); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	commit(t, tx)
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 100; i++ {
		insertUser(t, e, tbl, 0, i, "pre-ckpt", i)
	}
	csn, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if csn == 0 {
		t.Fatal("checkpoint CSN zero")
	}
	// Post-checkpoint activity.
	for i := int64(100); i < 150; i++ {
		insertUser(t, e, tbl, 0, i, "post-ckpt", i)
	}
	for i := int64(0); i < 20; i++ {
		tx, _ := e.Begin(0)
		rid, _, _ := tx.GetByKey(tbl, 0, I(i))
		tx.Update(tbl, rid, Row{I(i), S("updated"), I(-i)})
		commit(t, tx)
	}
	want := snapshotTable(t, e, "users")

	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	if stats.CheckpointEntries == 0 {
		t.Fatal("checkpoint not used")
	}
	got := snapshotTable(t, e2, "users")
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("row %d: got %v want %v", id, got[id], w)
		}
	}
}

func TestRecoveryParallelReplayOrderInsensitive(t *testing.T) {
	// Property: the recovered state is identical whatever the replay
	// parallelism, because replay resolves conflicts by newest-CSN-wins
	// CAS (Section 4.3).
	build := func() (*Engine, map[int64][2]interface{}) {
		e := testEngine(t, func(c *Config) { c.SegmentSize = 4096 }) // many segments
		tbl := mustTable(t, e, usersSchema())
		for i := int64(0); i < 50; i++ {
			insertUser(t, e, tbl, int(i%8), i, "v0", 0)
		}
		// Heavy update traffic across workers => records for the same
		// RID scattered across many per-stream segments.
		for round := int64(1); round <= 10; round++ {
			for i := int64(0); i < 50; i += 5 {
				tx, _ := e.Begin(int((i + round) % 8))
				rid, _, err := tx.GetByKey(tbl, 0, I(i))
				if err != nil {
					t.Fatal(err)
				}
				tx.Update(tbl, rid, Row{I(i), S(fmt.Sprintf("v%d", round)), I(round)})
				commit(t, tx)
			}
		}
		return e, snapshotTable(t, e, "users")
	}

	e, want := build()
	for _, threads := range []int{1, 4, 8} {
		manifestID := e.ManifestID()
		svc := e.Service()
		e2, _, err := Recover(Config{Service: svc, Workers: 16, SegmentSize: 1 << 20}, manifestID, RecoverOptions{ReplayThreads: threads})
		if err != nil {
			t.Fatal(err)
		}
		got := snapshotTable(t, e2, "users")
		if len(got) != len(want) {
			t.Fatalf("threads=%d: %d rows, want %d", threads, len(got), len(want))
		}
		for id, w := range want {
			if got[id] != w {
				t.Fatalf("threads=%d row %d: got %v want %v", threads, id, got[id], w)
			}
		}
		e2.Close()
	}
	e.Close()
}

func TestRecoverySkipIndexRebuild(t *testing.T) {
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "ada", 10)
	e2, stats := recoverEngine(t, e, RecoverOptions{ReplayThreads: 1, SkipIndexRebuild: true})
	if stats.IndexDuration != 0 {
		t.Fatal("index rebuild ran despite skip")
	}
	tbl2, _ := e2.Table("users")
	// RID access works without indexes (the paper's instant-recovery
	// property: PIAs alone suffice for record access).
	tx, _ := e2.Begin(0)
	row, err := tx.Get(tbl2, rid)
	if err != nil || row[1].Str() != "ada" {
		t.Fatalf("PIA-only access: %v %v", row, err)
	}
	commit(t, tx)
}

func TestRecoveryAfterCompaction(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 0 })
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 50; i++ {
		insertUser(t, e, tbl, 0, i, "x", i)
	}
	for round := 0; round < 5; round++ {
		for i := int64(0); i < 50; i += 3 {
			tx, _ := e.Begin(0)
			rid, _, _ := tx.GetByKey(tbl, 0, I(i))
			tx.Update(tbl, rid, Row{I(i), S("y"), I(int64(round) * 100)})
			commit(t, tx)
		}
	}
	e.RunGC()
	want := snapshotTable(t, e, "users")
	segsBefore := len(e.Log().Segments())
	bytesBefore := e.Log().TotalBytes()

	cs, err := e.CompactFull()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsDropped == 0 || cs.RecordsRewritten == 0 {
		t.Fatalf("compaction did nothing: %+v", cs)
	}
	_ = segsBefore
	_ = bytesBefore

	// Reads still work post-compaction (addresses updated).
	if n, err := e.Evict("users"); err != nil || n == 0 {
		t.Fatalf("evict: %d %v", n, err)
	}
	got := snapshotTable(t, e, "users")
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("post-compaction row %d: got %v want %v", id, got[id], w)
		}
	}

	// Recovery from the compacted log reproduces the same state.
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	got2 := snapshotTable(t, e2, "users")
	if len(got2) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got2), len(want))
	}
	for id, w := range want {
		if got2[id] != w {
			t.Fatalf("post-compaction recovery row %d: got %v want %v", id, got2[id], w)
		}
	}
}

func TestCompactionReclaimsSpace(t *testing.T) {
	e := testEngine(t, func(c *Config) {
		c.SegmentSize = 8192
		c.GCEveryNCommits = 0
	})
	tbl := mustTable(t, e, usersSchema())
	rid := insertUser(t, e, tbl, 0, 1, "hot", 0)
	// Overwrite one row many times: the log fills with dead versions.
	for i := int64(1); i <= 500; i++ {
		tx, _ := e.Begin(0)
		if err := tx.Update(tbl, rid, Row{I(1), S("hot"), I(i)}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	e.RunGC()
	logBytes := func() int64 {
		var total int64
		for _, seg := range e.Log().Segments() {
			if id, ok := e.Log().Directory().Lookup(seg); ok {
				if p, err := e.Service().Open(id); err == nil {
					total += p.Size()
				}
			}
		}
		return total
	}
	bytesBefore := logBytes()
	cs, err := e.CompactFull()
	if err != nil {
		t.Fatal(err)
	}
	bytesAfter := logBytes()
	if bytesAfter >= bytesBefore {
		t.Fatalf("compaction did not reclaim log space: %d -> %d bytes", bytesBefore, bytesAfter)
	}
	if cs.SegmentsDropped == 0 {
		t.Fatalf("no segments dropped: %+v", cs)
	}
	if cs.BytesReclaimed <= 0 {
		t.Fatalf("no bytes reclaimed: %+v", cs)
	}
	// Value intact.
	tx, _ := e.Begin(0)
	row, err := tx.Get(tbl, rid)
	if err != nil || row[2].Int() != 500 {
		t.Fatalf("post-compaction value: %v %v", row, err)
	}
	commit(t, tx)
}

func TestCompactPartialRewritesWindow(t *testing.T) {
	e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 0 })
	tbl := mustTable(t, e, usersSchema())
	for i := int64(0); i < 20; i++ {
		insertUser(t, e, tbl, 0, i, "x", i)
	}
	mid := e.watermark()
	for i := int64(20); i < 40; i++ {
		insertUser(t, e, tbl, 0, i, "y", i)
	}
	cs, err := e.CompactPartial(mid, e.watermark())
	if err != nil {
		t.Fatal(err)
	}
	if cs.RecordsRewritten != 20 {
		t.Fatalf("partial compaction rewrote %d records, want 20", cs.RecordsRewritten)
	}
}

func TestRecoverRequiresService(t *testing.T) {
	if _, _, err := Recover(Config{}, srss.PLogID{}, RecoverOptions{}); err == nil {
		t.Fatal("Recover without service succeeded")
	}
}

func TestRecoverUnknownManifest(t *testing.T) {
	svc := srss.New(srss.Config{})
	if _, _, err := Recover(Config{Service: svc}, srss.PLogID{1, 2, 3}, RecoverOptions{}); err == nil {
		t.Fatal("Recover with bogus manifest succeeded")
	}
}

func TestLostUncommittedNotRecovered(t *testing.T) {
	// A transaction that never committed must not surface after recovery
	// (redo-only log contains only committed data).
	e := testEngine(t)
	tbl := mustTable(t, e, usersSchema())
	insertUser(t, e, tbl, 0, 1, "committed", 1)
	tx, _ := e.Begin(1)
	if _, err := tx.Insert(tbl, Row{I(2), S("uncommitted"), I(2)}); err != nil {
		t.Fatal(err)
	}
	// Crash without commit: tx simply never reaches the log.
	e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2})
	got := snapshotTable(t, e2, "users")
	if len(got) != 1 {
		t.Fatalf("recovered %d rows, want 1: %v", len(got), got)
	}
	if _, ok := got[2]; ok {
		t.Fatal("uncommitted row recovered")
	}
	_ = errors.Is
}

// writeRowsTwice runs one transaction over rows 1..3 of users (already
// inserted) that writes rows twice, so both log records of a row carry one
// CSN: row 1 is updated twice (the second write changes the secondary key),
// row 2 is updated then deleted, row 3 is deleted then inserted again under
// its key, and row 100 is inserted then updated.
func writeRowsTwice(t *testing.T, e *Engine, tbl *Table) {
	t.Helper()
	tx, _ := e.Begin(0)
	rid1, _, err := tx.GetByKey(tbl, 0, I(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid1, Row{I(1), S("first"), I(100)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid1, Row{I(1), S("last"), I(200)}); err != nil {
		t.Fatal(err)
	}
	rid2, _, _ := tx.GetByKey(tbl, 0, I(2))
	if err := tx.Update(tbl, rid2, Row{I(2), S("gone"), I(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, rid2); err != nil {
		t.Fatal(err)
	}
	rid3, _, _ := tx.GetByKey(tbl, 0, I(3))
	if err := tx.Delete(tbl, rid3); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(tbl, Row{I(3), S("again"), I(33)}); err != nil {
		t.Fatal(err)
	}
	rid100, err := tx.Insert(tbl, Row{I(100), S("new"), I(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid100, Row{I(100), S("newer"), I(2)}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
}

// checkRowsTwice asserts that e holds want (a snapshot of users) and that
// both indexes find writeRowsTwice's rows by their last keys only.
func checkRowsTwice(t *testing.T, e *Engine, want map[int64][2]interface{}) {
	t.Helper()
	got := snapshotTable(t, e, "users")
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d: %v", len(got), len(want), got)
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("row %d: got %v want %v", id, got[id], w)
		}
	}
	tbl, _ := e.Table("users")
	tx, _ := e.Begin(0)
	defer tx.Commit()
	for _, c := range []struct {
		id   int64
		name string
	}{{1, "last"}, {3, "again"}, {100, "newer"}} {
		_, row, err := tx.GetByKey(tbl, 0, I(c.id))
		if err != nil {
			t.Fatalf("GetByKey(%d): %v", c.id, err)
		}
		if row[1].Str() != c.name {
			t.Fatalf("GetByKey(%d) = %v, want name %q", c.id, row, c.name)
		}
		var ids []int64
		if err := tx.ScanPrefix(tbl, 1, []Value{S(c.name)}, func(_ RID, r Row) bool {
			ids = append(ids, r[0].Int())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != c.id {
			t.Fatalf("by_name %q found ids %v, want [%d]", c.name, ids, c.id)
		}
	}
	if _, _, err := tx.GetByKey(tbl, 0, I(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("row deleted by its updating txn: GetByKey err = %v, want ErrNotFound", err)
	}
}

// compactAfterRowsTwice runs one of the compaction flavours after
// writeRowsTwice. Compactions rewrite records at their original CSN, and
// without a GC pass first each chain still holds a twice-written row's
// first version below its last, at the same CSN. "partial" keeps the old
// segments, so replay sees both the original and the rewritten records.
func compactAfterRowsTwice(t *testing.T, e *Engine, mode string) {
	t.Helper()
	var err error
	switch mode {
	case "none":
	case "gc+full":
		e.RunGC()
		_, err = e.CompactFull()
	case "full":
		_, err = e.CompactFull()
	case "partial":
		_, err = e.CompactPartial(0, e.watermark())
	default:
		t.Fatalf("unknown compaction %q", mode)
	}
	if err != nil {
		t.Fatal(err)
	}
}

var rowsTwiceCompactions = []string{"none", "gc+full", "full", "partial"}

// TestRecoverySameRowTwiceInOneTxn: replay must end each twice-written row
// with its later record's content, tombstone flag and index keys, after
// each compaction flavour and with and without the checkpoint.
func TestRecoverySameRowTwiceInOneTxn(t *testing.T) {
	for _, compact := range rowsTwiceCompactions {
		for _, skipCkpt := range []bool{false, true} {
			t.Run(fmt.Sprintf("compact=%s/skipCheckpoint=%v", compact, skipCkpt), func(t *testing.T) {
				e := testEngine(t, func(c *Config) { c.GCEveryNCommits = 0 })
				tbl := mustTable(t, e, usersSchema())
				for i := int64(0); i < 8; i++ {
					insertUser(t, e, tbl, 0, i, fmt.Sprintf("u%d", i), i)
				}
				writeRowsTwice(t, e, tbl)
				compactAfterRowsTwice(t, e, compact)
				want := snapshotTable(t, e, "users")
				e2, _ := recoverEngine(t, e, RecoverOptions{ReplayThreads: 2, SkipCheckpoint: skipCkpt})
				checkRowsTwice(t, e2, want)
			})
		}
	}
}
