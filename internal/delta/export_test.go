package delta

import "btpub/internal/lake"

// SetLake points m at a new handle on the lake it maintains, as a reopen
// (say, with lake.Options.Salvage) returns one; the lineage carries over.
func (m *Maintainer) SetLake(lk *lake.Lake) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lk = lk
}
