// Package checkpoint seeds the PR-10 structural bug classes in a
// durable package: a struct field absent from its Snapshot/Restore
// pair and a raw os.WriteFile. Each must fail make lint.
package checkpoint

import "os"

type Store struct {
	cursor int
	dirty  bool // seeded: absent from both Snapshot and Restore
}

// StoreState is the serialized form.
type StoreState struct{ Cursor int }

func (s *Store) Snapshot() StoreState  { return StoreState{Cursor: s.cursor} }
func (s *Store) Restore(st StoreState) { s.cursor = st.Cursor }

// Save is the seeded non-atomic write: a crash mid-write leaves a
// half-written checkpoint.
func Save(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
