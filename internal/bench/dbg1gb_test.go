package bench

import (
	"testing"
	"time"

	"blobdb/internal/simtime"
	"blobdb/internal/ycsb"
)

func TestDebug1GB(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1 GB-scale devices (several GB RSS, more under -race); skipped in -short")
	}
	s := scales()["1GB"]
	for _, v := range []OurVariant{VariantOur, VariantOurPhyslog} {
		sys, err := NewOurSystem(v, OurOptions{DevPages: s.devPages, PoolPages: s.pool, LogPages: s.logPages})
		if err != nil {
			t.Fatal(err)
		}
		w := ycsb.New(s.records, 0.5, s.payload, 42)
		val := func() []byte { v := w.Value(); return v[:64<<20] }
		for i := 0; i < s.records; i++ {
			if err := sys.Put(nil, ycsb.Key(i), val()); err != nil {
				t.Fatal(err)
			}
			sys.Drain()
		}
		bgBefore := sys.DB.CommitterBusy()
		start := time.Now()
		var vmax time.Duration
		writes, reads := 0, 0
		buf := make([]byte, 64<<20)
		m := simtime.NewMeter()
		for i := 0; i < s.ops; i++ {
			k := w.NextKey()
			if w.NextIsRead() {
				reads++
				sys.Get(m, ycsb.Key(k), buf)
			} else {
				writes++
				sys.Put(m, ycsb.Key(k), val())
				sys.Drain()
			}
		}
		sys.Drain()
		wall := time.Since(start)
		bg := sys.DB.CommitterBusy() - bgBefore
		vmax = m.Elapsed()
		t.Logf("%s: wall=%v bg=%v virtual=%v reads=%d writes=%d bytesMoved=%dMB",
			sys.Name(), wall, bg, vmax, reads, writes, m.Snapshot().BytesMoved>>20)
		sys.DB.CloseCommitter()
	}
}
