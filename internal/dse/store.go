package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"

	"potsim/internal/results"
)

// storeSchema is the per-stage cell-outcome schema: the cell's
// coordinates, its verdict, then the nine outcome metrics. Quarantined
// cells keep their coordinate columns and carry NaN metrics — a gap is
// an explicit row, never a missing one, so Rows() always equals the
// stage's cell count and a query can filter on status.
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

// StageStorePath is the columnar result store holding one stage's cell
// outcomes under a campaign store root ("screen" or "full").
func StageStorePath(root, stage string) string {
	return filepath.Join(root, stage)
}

// writeStageStore rewrites the stage's result store from the complete
// outcome slice. A whole-store rewrite (results.Replace) rather than an
// incremental append keeps resume trivially safe: the journal remains
// the system of record for partial progress, and re-running a stage —
// fresh, resumed, or at a different worker count — replaces the store
// with byte-identical content instead of duplicating rows. The segment
// meta carries the stage fingerprint (the same string that keys the
// journal), so a store can be matched to exactly the spec + stage +
// survivor set that produced it.
func (e *Engine) writeStageStore(space *Space, stage, stageMeta string, indexes []int64, outcomes []cellOutcome) error {
	sum := sha256.Sum256([]byte(stageMeta))
	meta := map[string]string{
		results.MetaID:      e.Spec.Name,
		"stage":             stage,
		"stage-fingerprint": hex.EncodeToString(sum[:16]),
	}
	st, err := results.Replace(StageStorePath(e.StoreDir, stage), storeSchema)
	if err != nil {
		return err
	}
	ap, err := st.NewAppender(0, meta)
	if err != nil {
		return err
	}
	row := make([]results.Value, len(storeSchema))
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
		row[0] = results.IntVal(p.Index)
		row[1] = results.StrVal(p.Mesh)
		row[2] = results.StrVal(p.Node.Name)
		row[3] = results.FloatVal(p.TDPFraction)
		row[4] = results.FloatVal(p.BaseInterval.Millis())
		row[5] = results.StrVal(string(p.Policy))
		row[6] = results.IntVal(int64(p.Seed))
		row[7] = results.StrVal(status)
		row[8] = results.FloatVal(m.PenaltyPct)
		row[9] = results.FloatVal(m.CoveragePct)
		row[10] = results.FloatVal(m.PeakTempK)
		row[11] = results.FloatVal(m.HeadroomW)
		row[12] = results.FloatVal(m.MeanPowerW)
		row[13] = results.FloatVal(m.TDPWatts)
		row[14] = results.FloatVal(m.TestEnergyPct)
		row[15] = results.FloatVal(m.TasksPerSec)
		row[16] = results.FloatVal(m.DetectLatencyMS)
		if err := ap.Append(row); err != nil {
			return err
		}
	}
	return ap.Close()
}
