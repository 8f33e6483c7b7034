package dse

import (
	"fmt"
	"math"
	"path/filepath"

	"potsim/internal/results"
)

// storeSchema is the per-stage cell-outcome schema: the cell's
// coordinates, its verdict, then the nine outcome metrics. Quarantined
// cells keep their coordinate columns and carry NaN metrics — a gap is
// an explicit row, never a missing one, so a store holds one row per
// stage cell and a query can filter on status.
var storeSchema = results.Schema{
	{Name: "cell", Kind: results.Int64},
	{Name: "mesh", Kind: results.String},
	{Name: "node", Kind: results.String},
	{Name: "tdpFraction", Kind: results.Float64},
	{Name: "intervalMS", Kind: results.Float64},
	{Name: "policy", Kind: results.String},
	{Name: "seed", Kind: results.Int64},
	{Name: "status", Kind: results.String},
	{Name: "penaltyPct", Kind: results.Float64},
	{Name: "coveragePct", Kind: results.Float64},
	{Name: "peakTempK", Kind: results.Float64},
	{Name: "headroomW", Kind: results.Float64},
	{Name: "meanPowerW", Kind: results.Float64},
	{Name: "tdpWatts", Kind: results.Float64},
	{Name: "testEnergyPct", Kind: results.Float64},
	{Name: "tasksPerSec", Kind: results.Float64},
	{Name: "detectLatencyMS", Kind: results.Float64},
}

// StageStorePath is the result store (a CSV file, see
// internal/results) holding one stage's cell outcomes under a campaign
// store root ("screen" or "full").
func StageStorePath(root, stage string) string {
	return filepath.Join(root, stage+".csv")
}

// writeStageStore rewrites the stage's result store from the complete
// outcome slice, as one atomic whole-file write. The journal remains
// the system of record for partial progress; re-running a stage —
// fresh, resumed, or at a different worker count — replaces the store
// with byte-identical content instead of duplicating rows.
func (e *Engine) writeStageStore(space *Space, stage string, indexes []int64, outcomes []cellOutcome) error {
	rows := make([][]results.Value, len(outcomes))
	for i, out := range outcomes {
		global := int64(i)
		if indexes != nil {
			global = indexes[i]
		}
		p := space.Point(global)
		status := "ok"
		m := CellMetrics{
			PenaltyPct: math.NaN(), CoveragePct: math.NaN(),
			PeakTempK: math.NaN(), HeadroomW: math.NaN(),
			MeanPowerW: math.NaN(), TDPWatts: math.NaN(),
			TestEnergyPct: math.NaN(), TasksPerSec: math.NaN(),
			DetectLatencyMS: math.NaN(),
		}
		switch {
		case out.Q != nil:
			status = "quarantined:" + out.Q.Class
		case out.M != nil:
			m = *out.M
		default:
			return fmt.Errorf("dse: stage %s cell %d has an empty outcome", stage, global)
		}
		rows[i] = []results.Value{
			results.IntVal(p.Index),
			results.StrVal(p.Mesh),
			results.StrVal(p.Node.Name),
			results.FloatVal(p.TDPFraction),
			results.FloatVal(p.BaseInterval.Millis()),
			results.StrVal(string(p.Policy)),
			results.IntVal(int64(p.Seed)),
			results.StrVal(status),
			results.FloatVal(m.PenaltyPct),
			results.FloatVal(m.CoveragePct),
			results.FloatVal(m.PeakTempK),
			results.FloatVal(m.HeadroomW),
			results.FloatVal(m.MeanPowerW),
			results.FloatVal(m.TDPWatts),
			results.FloatVal(m.TestEnergyPct),
			results.FloatVal(m.TasksPerSec),
			results.FloatVal(m.DetectLatencyMS),
		}
	}
	return results.Write(StageStorePath(e.StoreDir, stage), storeSchema, rows)
}
