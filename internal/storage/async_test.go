package storage

import (
	"bytes"
	"testing"
	"time"

	"blobdb/internal/simtime"
)

func TestAsyncWriteDeviceRoundtrip(t *testing.T) {
	inner := NewMemDevice(DefaultPageSize, 64, simtime.DefaultNVMe())
	d := NewAsyncWriteDevice(inner, simtime.DefaultNVMe())
	if d.PageSize() != DefaultPageSize || d.NumPages() != 64 {
		t.Fatal("geometry not forwarded")
	}
	w := bytes.Repeat([]byte{0x42}, 2*DefaultPageSize)
	m := simtime.NewMeter()
	if err := d.WritePages(m, 3, 2, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 2*DefaultPageSize)
	if err := d.ReadPages(m, 3, 2, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Error("roundtrip mismatch")
	}
	if d.Stats().WriteOps() != 1 {
		t.Error("stats not forwarded")
	}
}

func TestAsyncWriteChargesBandwidthOnly(t *testing.T) {
	cost := simtime.DefaultNVMe()
	inner := NewMemDevice(DefaultPageSize, 1<<14, cost)
	d := NewAsyncWriteDevice(inner, cost)

	// A one-page async write must cost strictly less than a synchronous
	// one (no latency component) but still more than zero (bandwidth).
	mAsync := simtime.NewMeter()
	buf := make([]byte, DefaultPageSize)
	if err := d.WritePages(mAsync, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	mSync := simtime.NewMeter()
	if err := inner.WritePages(mSync, 1, 1, buf); err != nil {
		t.Fatal(err)
	}
	if mAsync.Elapsed() == 0 {
		t.Error("async write should charge its bandwidth share")
	}
	if mAsync.Elapsed() >= mSync.Elapsed() {
		t.Errorf("async write (%v) should be cheaper than sync (%v)", mAsync.Elapsed(), mSync.Elapsed())
	}
}

func TestAsyncSyncChargesNothing(t *testing.T) {
	inner := NewMemDevice(DefaultPageSize, 64, simtime.DefaultNVMe())
	d := NewAsyncWriteDevice(inner, simtime.DefaultNVMe())
	m := simtime.NewMeter()
	if err := d.Sync(m); err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() != 0 {
		t.Errorf("group-commit sync charged %v to the worker", m.Elapsed())
	}
	if inner.Stats().Syncs() != 1 {
		t.Error("sync not forwarded to the device")
	}
}

func TestAsyncReadsStaySynchronous(t *testing.T) {
	cost := simtime.DefaultNVMe()
	inner := NewMemDevice(DefaultPageSize, 64, cost)
	d := NewAsyncWriteDevice(inner, cost)
	m := simtime.NewMeter()
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPages(m, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() < cost.ReadLatency {
		t.Errorf("read charged %v, want at least the full latency %v", m.Elapsed(), cost.ReadLatency)
	}
}

func TestAsyncVecCostModel(t *testing.T) {
	cost := simtime.DefaultNVMe()
	inner := NewMemDevice(DefaultPageSize, 256, cost)
	d := NewAsyncWriteDevice(inner, cost)
	segs := []Seg{
		{PID: 0, N: 1, Buf: make([]byte, DefaultPageSize)},
		{PID: 8, N: 1, Buf: make([]byte, DefaultPageSize)},
	}
	m := simtime.NewMeter()
	if err := WriteVec(d, m, segs); err != nil {
		t.Fatal(err)
	}
	// Async vec writes carry no latency and no random penalty: the charge
	// is exactly the bandwidth share of the two pages under the device's
	// own model.
	want := time.Duration(float64(2*DefaultPageSize) / cost.WriteBW * 1e9)
	if m.Elapsed() != want {
		t.Errorf("async vectored write charged %v, want the bandwidth share %v", m.Elapsed(), want)
	}
}
