package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"potsim/internal/eventlog"
	"potsim/internal/sim"
	"potsim/internal/workload"
)

// admissionHorizon lies off the epoch grid, so Run admits arrivals both
// before epochs and after its last one.
const admissionHorizon = 4*sim.Millisecond + 50*sim.Microsecond

// writeTrace writes entries as a trace file and returns its path.
func writeTrace(t *testing.T, entries []workload.TraceEntry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, entries); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// arrivalTrace turns fuzz bytes into trace entries. Each byte is one
// arrival: its upper seven bits are the gap since the previous arrival
// in 25 µs steps, and an odd byte snaps the arrival up to the next epoch
// instant.
func arrivalTrace(gaps []byte, epoch sim.Time) []workload.TraceEntry {
	lib := workload.Library()
	entries := make([]workload.TraceEntry, 0, len(gaps))
	at := sim.Time(0)
	for i, b := range gaps {
		at += sim.Time(b>>1) * 25 * sim.Microsecond
		if b&1 == 1 {
			at = (at + epoch - 1) / epoch * epoch
		}
		entries = append(entries, workload.TraceEntry{AtNs: int64(at), Graph: lib[i%len(lib)]})
	}
	return entries
}

// FuzzArrivalAdmission pins when Run admits arrivals: every arrival at or
// before Horizon counts, arrivals at an epoch instant are queued before
// that epoch acts, and a run killed at any epoch resumes to the same
// report.
func FuzzArrivalAdmission(f *testing.F) {
	// Each seed puts an off-grid arrival before the boundary it tests, so
	// that boundary's epoch logs the earlier app's mapping and an arrival
	// admitted after the epoch shows in the log order.
	f.Add([]byte{2 * 10, 2*2 + 1}, uint8(2))          // 250 µs, then exactly on tick 3
	f.Add([]byte{2 * 2, 2*2 + 1, 0}, uint8(0))        // 50 µs, then two at tick 1
	f.Add([]byte{255, 2 * 31, 2*1 + 1, 2}, uint8(39)) // 3.2 ms, 3.975 ms, the last tick, then 4.025 ms
	f.Fuzz(func(t *testing.T, gaps []byte, kill uint8) {
		if len(gaps) > 32 {
			gaps = gaps[:32]
		}
		cfg := DefaultConfig()
		cfg.Horizon = admissionHorizon
		cfg.EventLogCapacity = 4096
		entries := arrivalTrace(gaps, cfg.Epoch)
		cfg.TracePath = writeTrace(t, entries)

		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		due := 0
		for _, e := range entries {
			if sim.Time(e.AtNs) <= cfg.Horizon {
				due++
			}
		}
		if rep.AppsArrived != due {
			t.Fatalf("AppsArrived = %d, want the %d trace entries at or before %v", rep.AppsArrived, due, cfg.Horizon)
		}

		log := sys.Events()
		if log.Dropped() != 0 {
			t.Fatalf("event log dropped %d events; raise its capacity", log.Dropped())
		}
		acted := sim.Time(-1) // the last epoch instant that logged a non-arrival
		for _, e := range log.Events() {
			if e.At%cfg.Epoch != 0 {
				continue
			}
			if e.Kind != eventlog.AppArrived {
				acted = e.At
			} else if e.At == acted {
				t.Fatalf("app %d arriving at %v was admitted after that epoch acted", e.App, e.At)
			}
		}

		epochs := int64(cfg.Horizon / cfg.Epoch)
		path := runKilledAt(t, cfg, 1+int64(kill)%epochs)
		if got, want := reportBytes(t, resumeFrom(t, cfg, path)), reportBytes(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("kill at epoch %d: resumed report differs from uninterrupted run", 1+int64(kill)%epochs)
		}
	})
}
