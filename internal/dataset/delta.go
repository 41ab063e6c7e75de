// Incremental advancement of canonical datasets. Merge establishes the
// canonical form — records ordered by (Published, InfoHash) and
// renumbered, observations ordered by (At, TorrentID, IP, Seeder), users
// ordered by username. The helpers here advance an already-canonical
// dataset by a batch of new records/users/observations without
// re-interning or re-sorting the unchanged bulk, producing output
// observably identical to re-running Merge over the combined inputs.
// internal/delta drives them on every lake version bump.
//
// Concurrency contract: AdvanceObs extends the previous store's intern
// table in place (the maps are shared across the whole snapshot
// lineage), and on its append path it also grows the previous store's
// columns and per-torrent index spans in place. The caller must
// serialize every advance over one lineage and must guarantee that
// published snapshots never touch the table's maps and are never
// appended to — they may read only slice data up to their own lengths.
// Already-published elements are never rewritten: new addresses, rows
// and span entries are written only past the length every earlier
// snapshot reads, and a store's spare capacity goes to at most one
// successor (the first advance claims it; later ones copy). A lineage is
// abandoned (and a fresh table built) whenever the caller starts over
// from the empty dataset.
package dataset

import (
	"slices"
	"strings"
)

// recordKeyCmp orders torrent records by the canonical Merge key.
func recordKeyCmp(a, b *TorrentRecord) int {
	if c := a.Published.Compare(b.Published); c != 0 {
		return c
	}
	return strings.Compare(a.InfoHash, b.InfoHash)
}

// userKeyCmp orders user records by the canonical Merge key.
func userKeyCmp(a, b UserRecord) int { return strings.Compare(a.Username, b.Username) }

// MergeRecords inserts add into the canonically ordered record list prev
// (Merge output: sorted by (Published, InfoHash), TorrentID == index),
// renumbering the result. Every output record is a copy, so prev — which
// a previous snapshot may still be serving — is never mutated. Returns
//
//	merged  — the combined, renumbered record list
//	remapOld — remapOld[i] is record prev[i]'s new torrent ID
//	           (monotonically increasing)
//	addIDs  — addIDs[j] is record add[j]'s new torrent ID
//
// Records sharing a key keep Merge's stable order: add sorts stably and
// ties between prev and add go to prev, because an added record is
// always committed after every record already in prev.
func MergeRecords(prev, add []*TorrentRecord) (merged []*TorrentRecord, remapOld, addIDs []int32) {
	order := make([]int, len(add)) // indices into add, in key order
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return recordKeyCmp(add[a], add[b]) })
	merged = make([]*TorrentRecord, 0, len(prev)+len(add))
	remapOld = make([]int32, len(prev))
	addIDs = make([]int32, len(add))
	i, j := 0, 0
	for i < len(prev) || j < len(order) {
		id := int32(len(merged))
		var cp TorrentRecord
		if i == len(prev) || (j < len(order) && recordKeyCmp(prev[i], add[order[j]]) > 0) {
			cp = *add[order[j]]
			addIDs[order[j]] = id
			j++
		} else {
			cp = *prev[i]
			remapOld[i] = id
			i++
		}
		cp.TorrentID = int(id)
		merged = append(merged, &cp)
	}
	return merged, remapOld, addIDs
}

// MergeUsers inserts add into the username-ordered user list prev, with
// MergeRecords' tie rule: duplicates of one username stay in commit
// order (add sorted stably, prev first).
func MergeUsers(prev, add []UserRecord) []UserRecord {
	as := slices.Clone(add)
	slices.SortStableFunc(as, userKeyCmp)
	merged := make([]UserRecord, 0, len(prev)+len(as))
	i, j := 0, 0
	for i < len(prev) && j < len(as) {
		if userKeyCmp(prev[i], as[j]) > 0 {
			merged = append(merged, as[j])
			j++
		} else {
			merged = append(merged, prev[i])
			i++
		}
	}
	merged = append(merged, prev[i:]...)
	return append(merged, as[j:]...)
}

// DeltaObs is a batch of observation rows to advance a canonical store
// by. Torrent IDs are in the NEW numbering (after MergeRecords);
// addresses are interned in the batch's own table.
type DeltaObs struct {
	Table  IPTable
	Tids   []int32
	IPIdx  []uint32
	AtNs   []int64
	Seeder []bool
}

// Append adds one row, interning its address in the batch table.
func (d *DeltaObs) Append(tid int32, ip string, atNs int64, seeder bool) {
	d.Tids = append(d.Tids, tid)
	d.IPIdx = append(d.IPIdx, d.Table.InternString(ip))
	d.AtNs = append(d.AtNs, atNs)
	d.Seeder = append(d.Seeder, seeder)
}

// Len returns the number of rows in the batch.
func (d *DeltaObs) Len() int { return len(d.Tids) }

// AdvanceObs fills dst (which must be zero-valued) with a canonically
// ordered observation store holding prev's rows — torrent IDs renumbered
// through remapOld — plus the batch's rows, and returns each batch row's
// index in dst's intern table. dst shares prev's intern table, extended
// in place with the batch's new addresses (see the package comment for
// the concurrency contract).
//
// When remapOld is the identity and the whole batch sorts after prev's
// last row — a live crawl's steady state — dst's columns grow in place
// past prev's length, and a built index of prev extends to dst. Only the
// first advance from prev may grow into its tail: a second one gets a
// private copy of the intern table and, like any batch that interleaves
// with or renumbers prev's rows, fresh column arrays (dst's index then
// builds on first use). Either way prev stays exactly as published.
//
// remapOld must be monotonically increasing — Merge's record order
// depends only on record content, so inserting records never reorders
// surviving ones — which is what keeps prev's rows sorted under
// renumbering. A nil remapOld means the identity. The result is
// observably identical to Merge over the combined inputs; intern-table
// order (unobservable) may differ.
func AdvanceObs(dst, prev *ObsStore, remapOld []int32, d *DeltaObs) []uint32 {
	next := dst
	inPlace := prev.tail.CompareAndSwap(false, true)
	if inPlace {
		next.ips = prev.ips
	} else {
		next.ips = prev.ips.clone()
	}
	// Intern the batch's distinct addresses, reusing the already-parsed
	// netip form.
	ipRemap := make([]uint32, d.Table.Len())
	for i := range ipRemap {
		s := d.Table.strs[i]
		if j, ok := next.ips.byStr[s]; ok {
			ipRemap[i] = j
		} else {
			ipRemap[i] = next.ips.add(s, d.Table.addrs[i])
		}
	}
	// The canonical IP tie-break is the address string.
	strs := next.ips.strs
	cmpIP := func(a, b uint32) int {
		if a == b {
			return 0
		}
		return strings.Compare(strs[a], strs[b])
	}

	identity := true
	for i, v := range remapOld {
		if v != int32(i) {
			identity = false
			break
		}
	}

	m := d.Len()
	dTid := d.Tids
	dIP := make([]uint32, m)
	for j := 0; j < m; j++ {
		dIP[j] = ipRemap[d.IPIdx[j]]
	}
	perm := make([]int32, m)
	for j := range perm {
		perm[j] = int32(j)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if d.AtNs[a] != d.AtNs[b] {
			if d.AtNs[a] < d.AtNs[b] {
				return -1
			}
			return 1
		}
		if dTid[a] != dTid[b] {
			return int(dTid[a]) - int(dTid[b])
		}
		if c := cmpIP(dIP[a], dIP[b]); c != 0 {
			return c
		}
		sa, sb := d.Seeder[a], d.Seeder[b]
		switch {
		case sa == sb:
			return 0
		case sb:
			return -1
		default:
			return 1
		}
	})

	// deltaBeforeOld reports whether delta row j sorts strictly before
	// prev row i under the canonical key (ties keep prev first; equal
	// keys mean identical rows, so either order serializes the same).
	deltaBeforeOld := func(j int32, i int) bool {
		if d.AtNs[j] != prev.atNs[i] {
			return d.AtNs[j] < prev.atNs[i]
		}
		oldTid := prev.tids[i]
		if !identity {
			oldTid = remapOld[oldTid]
		}
		if dTid[j] != oldTid {
			return dTid[j] < oldTid
		}
		if c := cmpIP(dIP[j], prev.ipIdx[i]); c != 0 {
			return c < 0
		}
		return prev.Seeder(i) && !d.Seeder[j]
	}

	n := prev.Len()
	total := n + m
	seed := make([]uint64, (total+63)/64)
	var tids []int32
	var ipIdx []uint32
	var atNs []int64
	appendDelta := func(k int, j int32) {
		tids[k] = dTid[j]
		ipIdx[k] = dIP[j]
		atNs[k] = d.AtNs[j]
		if d.Seeder[j] {
			seed[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	if inPlace && identity && (n == 0 || m == 0 || !deltaBeforeOld(perm[0], n-1)) {
		// Grow into prev's tail: the new rows land past prev's length.
		tids = slices.Grow(prev.tids, m)[:total]
		ipIdx = slices.Grow(prev.ipIdx, m)[:total]
		atNs = slices.Grow(prev.atNs, m)[:total]
		copy(seed, prev.seed) // bits beyond n are zero in prev
		for k, j := range perm {
			appendDelta(n+k, j)
		}
		if ix := prev.builtIndex(); ix != nil {
			next.idx, next.idxLen = ix.extend(tids[n:], n), total
		}
	} else {
		tids = make([]int32, total)
		ipIdx = make([]uint32, total)
		atNs = make([]int64, total)
		copyOld := func(k, i int) {
			tids[k] = prev.tids[i]
			if !identity {
				tids[k] = remapOld[prev.tids[i]]
			}
			ipIdx[k] = prev.ipIdx[i]
			atNs[k] = prev.atNs[i]
			if prev.Seeder(i) {
				seed[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		i, j, k := 0, 0, 0
		for ; i < n && j < m; k++ {
			if deltaBeforeOld(perm[j], i) {
				appendDelta(k, perm[j])
				j++
			} else {
				copyOld(k, i)
				i++
			}
		}
		for ; i < n; i, k = i+1, k+1 {
			copyOld(k, i)
		}
		for ; j < m; j, k = j+1, k+1 {
			appendDelta(k, perm[j])
		}
	}
	next.tids, next.ipIdx, next.atNs, next.seed = tids, ipIdx, atNs, seed
	return dIP
}
