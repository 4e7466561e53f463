package obs

import (
	"fmt"
	"io"
	"testing"
)

// perBoardFamilies are the counter families a sweep registers for every
// board it measures (driver, meter and characterize), the bulk of a
// fleet-serving gpuperfd's exposition.
var perBoardFamilies = []string{
	"characterize_cells_quarantined_total", "characterize_cells_total",
	"characterize_journal_hits_total", "characterize_sim_microseconds_total",
	"driver_boots_total", "driver_clock_transitions_total",
	"driver_launch_cache_hits_total", "driver_launch_cache_misses_total",
	"driver_launches_total", "driver_reboots_total",
	"meter_measurements_total", "meter_samples_total",
	"meter_windows_dropped_total", "meter_windows_interpolated_total",
	"meter_windows_spiked_total", "meter_windows_stuck_total",
}

// scrapeRegistry builds a registry the size of the benchmark daemon's
// after its 1,000-device fleet campaign: the sixteen per-board families
// over 1,000 devices and 4 paper boards, 16,064 series.
func scrapeRegistry() *Registry {
	reg := NewRegistry()
	boards := []string{"GTX 285", "GTX 460", "GTX 480", "GTX 680"}
	for i := 0; i < 1000; i++ {
		boards = append(boards, fmt.Sprintf("%s#%04d", boards[i%4], i))
	}
	for _, fam := range perBoardFamilies {
		for i, board := range boards {
			reg.Counter(fam, "per-board counter", L("board", board)).Add(int64(i) * 977)
		}
	}
	return reg
}

// snapSink keeps the benchmarked snapshots live.
var snapSink *Snapshot

// BenchmarkWriteText prices one scrape of scrapeRegistry in its two
// halves: /snapshot copies the values (the exposition order is built by
// a first Snapshot outside the loop, as on a daemon whose series are all
// registered), and /render writes one snapshot's text.
func BenchmarkWriteText(b *testing.B) {
	reg := scrapeRegistry()
	snap := reg.Snapshot()
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snapSink = reg.Snapshot()
		}
	})
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := snap.WriteText(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrackSlice is the cost of one kernel slice on a sweep job's
// track: /events on a New recorder's track, which keeps the event, and
// /cursor on an event-free track, which only advances the cursor. The
// events row grows its track for b.N events, as a long sweep job does.
func BenchmarkTrackSlice(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  *Recorder
	}{{"events", New()}, {"cursor", NewTrackFree()}} {
		b.Run(c.name, func(b *testing.B) {
			tr := c.rec.Track("sweep/GTX 680/backprop")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Slice("bpnn_layerforward", 0.000125)
			}
		})
	}
}
