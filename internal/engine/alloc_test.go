//go:build !race

package engine

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/disk"
	"repro/internal/hv"
	"repro/internal/pagestore"
	"repro/internal/sim"
)

// allocated returns the heap allocations fn makes and the bytes they take.
// The simulation runs one process at a time, so everything counted is fn's
// or the processes it waits on.
func allocated(fn func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// allocKeys returns n distinct keys, built before anything is measured.
func allocKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	return keys
}

// TestRedoAndRebuildAllocBound: a follower's CatchUp over N update records
// and a rebuild of N live rows read each key as a view into the log record
// or the page, so they allocate per chunk of keys, per page and per log
// extent, not per key: the index keeps a hash of each key, and the key in
// its record only. Each read about N
// allocations while redo and rebuild built a string per key. In bytes, redo
// in place allocates the scan's two buffers and the held updates, not the
// log it reads: the scan reads its doubling extents into two buffers in
// turn, which grow to under three extents in all, and redo copies only the
// payloads it holds until their commit. The update round rewrites every row
// eight times: a fresh buffer per extent read allocated 3.1 MB for its
// 3.1 MB of log.
func TestRedoAndRebuildAllocBound(t *testing.T) {
	const (
		n = 8192
		// extent is wal's scanExtentBytes, the largest extent a scan reads.
		extent = 256 << 10
		// slack covers each extent's read record, event and helper process.
		slack = 64 << 10
	)
	keys := allocKeys(n)
	bound := uint64(n/64 + 192)
	// held bounds the held updates' payloads: one transaction's 64 (flag,
	// key length, key, a one-byte value), twice over for append's growth.
	held := uint64(2 * 64 * (3 + len(keys[0]) + 1))
	r := newTestRig(1)
	data := disk.NewMem(r.s, disk.MemConfig{Name: "data-follower", Persistent: true, Capacity: 1 << 18})
	r.m.AttachDevice(data)
	follower := hv.NewNative(r.m, r.plat.LogDisk(), data)
	logStats := r.plat.LogDisk().(*disk.Mem).Stats()
	r.s.Spawn(r.plat.Domain(), "t", func(p *sim.Proc) {
		w, err := Open(p, r.plat, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f, err := Follow(p, follower, Config{NoDaemons: true})
		if err != nil {
			t.Errorf("follow: %v", err)
			return
		}
		write := func(v string) {
			for i := 0; i < n; i += 64 {
				tx := w.Begin(p)
				for _, k := range keys[i : i+64] {
					_ = tx.Put(k, []byte(v))
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}
		for _, round := range []struct {
			name   string
			passes int
		}{{"inserting", 1}, {"updating in place", 8}} {
			for pass := 0; pass < round.passes; pass++ {
				write(round.name[:1])
			}
			var err error
			read0 := logStats.SectorsRead.Value()
			got, size := allocated(func() { err = f.CatchUp(p, -1) })
			if err != nil {
				t.Errorf("catch up: %v", err)
				return
			}
			read := uint64(logStats.SectorsRead.Value()-read0) * disk.SectorSize
			t.Logf("redo %s %d rows: %d allocations, %d bytes, %d log bytes read", round.name, n, got, size, read)
			if got > bound {
				t.Errorf("redo %s %d rows allocated %d times, want <= %d", round.name, n, got, bound)
			}
			if round.passes > 1 && size > 3*extent+held+slack {
				t.Errorf("redo %s %d rows allocated %d bytes for %d log bytes read, want <= three scan extents + %d held + %d", round.name, n, size, read, held, slack)
			}
		}
		if err := f.Lead(p, -1); err != nil {
			t.Errorf("lead: %v", err)
			return
		}
		if err := f.Checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		st, err := pagestore.Open(r.s, data, nil, pagestore.Config{PageSize: f.cfg.PageSize})
		if err != nil {
			t.Errorf("open store: %v", err)
			return
		}
		st.SetWrittenThrough(f.heap.nextPage - 1)
		h := newHeap(st)
		got, _ := allocated(func() { err = h.rebuild(p, f.heap.nextPage) })
		if err != nil {
			t.Errorf("rebuild: %v", err)
			return
		}
		t.Logf("rebuild of %d rows: %d allocations", n, got)
		if got > bound {
			t.Errorf("rebuild of %d rows allocated %d times, want <= %d", n, got, bound)
		}
		if len(h.index) != n {
			t.Errorf("rebuild indexed %d rows, want %d", len(h.index), n)
		}
		for _, k := range keys {
			if _, ok := h.index[keyHash(k)]; !ok {
				t.Errorf("rebuild lost %q", k)
				return
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLockSlabAllocBound: one transaction locking N distinct keys, as an
// audit reading every acked row does, takes its lock entries from slabs with
// room for the first holder. It read 2N allocations while each entry and
// its holder slice were allocated on their own.
func TestLockSlabAllocBound(t *testing.T) {
	const n = 4096
	keys := allocKeys(n)
	bound := uint64(n/32 + 64)
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		got, _ := allocated(func() {
			tx := e.Begin(p)
			for _, k := range keys {
				if _, _, err := tx.Get(k); err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
			}
			_ = tx.Commit()
		})
		t.Logf("one transaction reading %d keys: %d allocations", n, got)
		if got > bound {
			t.Errorf("one transaction reading %d keys allocated %d times, want <= %d", n, got, bound)
		}
	})
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIndexBytesBound: the heap index holds a hash and a location per row
// and the key in the row's record only, so it costs a fixed number of bytes
// a row whatever the key. After N inserts through transactions, whose keys
// the caller drops, the heap holds at most indexRowBytes a row beyond its
// pages, plus slack; a rebuild of the N rows over a warm pool, which reads
// no page, allocates at most rebuildRowBytes a row, plus slack. They read
// 36 and 72 bytes a row; an index keyed by strings, which kept each key,
// read 95 and 169.
func TestIndexBytesBound(t *testing.T) {
	const (
		n               = 1 << 16
		indexRowBytes   = 44
		rebuildRowBytes = 88
		slack           = 64 << 10
	)
	r := newTestRig(1)
	r.run(t, "t", func(p *sim.Proc, e *Engine) {
		var buf []byte
		for i := 0; i < n; i += 64 {
			tx := e.Begin(p)
			for j := i; j < i+64; j++ {
				buf = strconv.AppendInt(append(buf[:0], "key-"...), int64(j), 10)
				if err := tx.Put(string(buf), []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
		nextPage := e.heap.nextPage
		with := liveHeap()
		e.heap = newHeap(e.store)
		held := int64(with) - int64(liveHeap())
		t.Logf("index of %d rows: %d live bytes, %.1f a row", n, held, float64(held)/n)
		if held > n*indexRowBytes+slack {
			t.Errorf("index of %d rows holds %d bytes, want <= %d a row + %d", n, held, indexRowBytes, slack)
		}
		var err error
		h := newHeap(e.store)
		_, size := allocated(func() { err = h.rebuild(p, nextPage) })
		if err != nil {
			t.Errorf("rebuild: %v", err)
			return
		}
		t.Logf("rebuild of %d rows: %d bytes, %.1f a row", n, size, float64(size)/n)
		if size > n*rebuildRowBytes+slack {
			t.Errorf("rebuild of %d rows allocated %d bytes, want <= %d a row + %d", n, size, rebuildRowBytes, slack)
		}
		if len(h.index) != n {
			t.Errorf("rebuild indexed %d rows, want %d", len(h.index), n)
		}
	})
}
