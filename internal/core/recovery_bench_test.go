package core

import (
	"fmt"
	"runtime"
	"testing"

	"hiengine/internal/srss"
)

// BenchmarkRecoverIndexRebuild recovers one crashed 200k-row table (a
// unique primary key and a non-unique string index) from its full log with
// four replay threads, index rebuild included. Besides ns/op and allocs/op
// it reports the replay and index-rebuild phases and the live heap the
// recovered engine holds.
func BenchmarkRecoverIndexRebuild(b *testing.B) {
	const rows, batch = 200_000, 500
	svc := srss.New(srss.Config{})
	e, err := Open(Config{Service: svc, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := e.CreateTable(&Schema{
		Name: "kv",
		Columns: []Column{
			{Name: "k", Kind: KindInt},
			{Name: "tag", Kind: KindString},
			{Name: "v", Kind: KindString},
		},
		Indexes: []IndexDef{
			{Name: "pk", Columns: []int{0}, Unique: true},
			{Name: "by_tag", Columns: []int{1}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i += batch {
		tx, err := e.Begin(0)
		if err != nil {
			b.Fatal(err)
		}
		for j := i; j < i+batch; j++ {
			row := Row{I(int64(j)), S(fmt.Sprintf("tag-%03d", j%997)), S(fmt.Sprintf("value-%08d-xxxxxxxxxxxxxxxx", j))}
			if _, err := tx.Insert(tbl, row); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	manifest := e.ManifestID()
	e.Close()

	var replayNS, indexNS, liveBytes float64
	var ms runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		b.StartTimer()
		e2, st, err := Recover(Config{Service: svc, Workers: 4}, manifest, RecoverOptions{ReplayThreads: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st.RecordsScanned < rows {
			b.Fatalf("replayed %d records, want >= %d", st.RecordsScanned, rows)
		}
		replayNS += float64(st.ReplayDuration.Nanoseconds())
		indexNS += float64(st.IndexDuration.Nanoseconds())
		runtime.GC()
		runtime.ReadMemStats(&ms)
		liveBytes += float64(ms.HeapAlloc) - float64(before)
		e2.Close()
		b.StartTimer()
	}
	b.ReportMetric(replayNS/float64(b.N)/1e6, "replay-ms/op")
	b.ReportMetric(indexNS/float64(b.N)/1e6, "index-ms/op")
	b.ReportMetric(liveBytes/float64(b.N)/(1<<20), "live-MiB")
}
