package dse

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestFrontierInsertBasics(t *testing.T) {
	var f Frontier
	must := func(e Entry) {
		t.Helper()
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	must(Entry{Index: 0, Obj: Objectives{1, 1, 1, 1}})
	must(Entry{Index: 1, Obj: Objectives{2, 2, 2, 2}}) // dominated: dropped
	if f.Len() != 1 {
		t.Fatalf("dominated entry kept: %v", f.Members())
	}
	must(Entry{Index: 2, Obj: Objectives{0, 2, 1, 1}}) // trade-off: joins
	must(Entry{Index: 3, Obj: Objectives{0, 1, 1, 1}}) // dominates 0 and 2
	if f.Len() != 1 || f.Members()[0].Index != 3 {
		t.Fatalf("dominating entry did not evict: %v", f.Members())
	}
	must(Entry{Index: 4, Obj: Objectives{0, 1, 1, 1}}) // duplicate vector coexists
	if f.Len() != 2 {
		t.Fatalf("duplicate vector was dropped: %v", f.Members())
	}
	if err := f.Insert(Entry{Index: 5, Obj: Objectives{math.NaN(), 0, 0, 0}}); err == nil {
		t.Fatal("NaN objective vector accepted")
	}
}

func TestPeelRanks(t *testing.T) {
	entries := []Entry{
		{Index: 0, Obj: Objectives{0, 0, 0, 0}}, // rank 1
		{Index: 1, Obj: Objectives{1, 1, 1, 1}}, // rank 3 (dominated by 0 and 3)
		{Index: 2, Obj: Objectives{2, 2, 2, 2}}, // rank 4
		{Index: 3, Obj: Objectives{1, 0, 0, 0}}, // rank 2 (dominated only by 0)
	}
	got := Peel(entries, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Peel(1) = %v, want [0]", got)
	}
	got = Peel(entries, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Peel(2) = %v, want [0 3]", got)
	}
	got = Peel(entries, 3)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("Peel(3) = %v, want [0 1 3]", got)
	}
	got = Peel(entries, 0)
	if len(got) != len(entries) {
		t.Fatalf("Peel(0) = %v, want every index", got)
	}
}

// decodeObjectives derives n deterministic objective vectors from fuzz
// bytes: each float is a signed 16-bit value scaled down, so duplicates
// and exact ties are common — the interesting cases for dominance.
func decodeObjectives(data []byte, n int) []Objectives {
	out := make([]Objectives, 0, n)
	for i := 0; i+2*NumObjectives <= len(data) && len(out) < n; i += 2 * NumObjectives {
		var o Objectives
		for d := 0; d < NumObjectives; d++ {
			v := int16(binary.LittleEndian.Uint16(data[i+2*d:]))
			o[d] = float64(v) / 64
		}
		out = append(out, o)
	}
	return out
}

func FuzzParetoFrontier(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 4, 0, 3, 0, 2, 0, 1, 0}, int64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, int64(7))
	f.Add([]byte{255, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}, int64(42))
	f.Fuzz(func(t *testing.T, data []byte, shuffleSeed int64) {
		objs := decodeObjectives(data, 64)
		if len(objs) == 0 {
			t.Skip()
		}

		var fr Frontier
		for i, o := range objs {
			if err := fr.Insert(Entry{Index: int64(i), Obj: o}); err != nil {
				t.Fatalf("finite vector rejected: %v", err)
			}
		}
		members := fr.Members()
		onFrontier := make(map[int64]bool, len(members))

		// No frontier member dominates another.
		for _, a := range members {
			onFrontier[a.Index] = true
			for _, b := range members {
				if a.Index != b.Index && dominates(a.Obj, b.Obj) {
					t.Fatalf("frontier member %d dominates member %d", a.Index, b.Index)
				}
			}
		}
		// Every excluded point is dominated by some member.
		for i, o := range objs {
			if onFrontier[int64(i)] {
				continue
			}
			dominated := false
			for _, m := range members {
				if dominates(m.Obj, o) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("excluded point %d (%v) is not dominated", i, o)
			}
		}
		// Agreement with the batch oracle.
		points := make([][]float64, len(objs))
		for i, o := range objs {
			points[i] = append([]float64(nil), o[:]...)
		}
		oracle, err := ParetoMin(points)
		if err != nil {
			t.Fatal(err)
		}
		for i, keep := range oracle {
			if keep != onFrontier[int64(i)] {
				t.Fatalf("point %d: incremental frontier says %v, ParetoMin says %v",
					i, onFrontier[int64(i)], keep)
			}
		}
		// Insertion order must not matter.
		order := rand.New(rand.NewSource(shuffleSeed)).Perm(len(objs))
		var fr2 Frontier
		for _, i := range order {
			if err := fr2.Insert(Entry{Index: int64(i), Obj: objs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		shuffled := fr2.Members()
		if len(shuffled) != len(members) {
			t.Fatalf("shuffled insertion changed the frontier size: %d vs %d",
				len(shuffled), len(members))
		}
		for i := range members {
			if members[i] != shuffled[i] {
				t.Fatalf("shuffled insertion changed the frontier: %v vs %v",
					members[i], shuffled[i])
			}
		}
	})
}

// ParetoMin is the brute-force oracle the incremental Frontier is checked
// against. It marks the non-dominated points of a set under minimisation
// of every dimension: out[i] is true when no other point is at least as good
// in all dimensions and strictly better in one. Duplicate points are all
// kept. Points must share a dimensionality.
func ParetoMin(points [][]float64) ([]bool, error) {
	out := make([]bool, len(points))
	if len(points) == 0 {
		return out, nil
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, errors.New("ragged pareto input")
		}
	}
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			allLeq, oneLess := true, false
			for d := 0; d < dim; d++ {
				if points[j][d] > points[i][d] {
					allLeq = false
					break
				}
				if points[j][d] < points[i][d] {
					oneLess = true
				}
			}
			if allLeq && oneLess {
				dominated = true
				break
			}
		}
		out[i] = !dominated
	}
	return out, nil
}

func TestParetoMin(t *testing.T) {
	points := [][]float64{
		{1, 5}, // front
		{2, 4}, // front
		{3, 3}, // front
		{3, 5}, // dominated by {1,5}? no: 1<3, 5==5 -> dominated
		{2, 6}, // dominated by {1,5} and {2,4}
		{1, 5}, // duplicate of front point: kept
	}
	front, err := ParetoMin(points)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false, false, true}
	for i := range want {
		if front[i] != want[i] {
			t.Errorf("point %d pareto = %v, want %v", i, front[i], want[i])
		}
	}
	if _, err := ParetoMin([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged input accepted")
	}
	empty, err := ParetoMin(nil)
	if err != nil || len(empty) != 0 {
		t.Error("empty input mishandled")
	}
}
