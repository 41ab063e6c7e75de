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
// lineage). The caller must serialize every advance over one lineage and
// must guarantee that published snapshots never touch the table's maps —
// they may read only the interned strings/addrs slices, whose already-
// published elements are never rewritten. A lineage is abandoned (and a
// fresh table built) whenever the caller starts over from the empty
// dataset.
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

// CanonicalIPOrder returns the table's intern indices ordered by address
// string — the tie-break order of the canonical observation sort, in the
// incrementally maintainable form AdvanceObs consumes and extends.
func CanonicalIPOrder(t *IPTable) []uint32 {
	out := make([]uint32, t.Len())
	for i := range out {
		out[i] = uint32(i)
	}
	slices.SortFunc(out, func(a, b uint32) int {
		return strings.Compare(t.strs[a], t.strs[b])
	})
	return out
}

// AdvanceObs fills dst (which must be zero-valued) with a canonically
// ordered observation store holding prev's rows — torrent IDs renumbered
// through remapOld — plus the batch's rows. dst shares prev's intern
// table, extended in place with the batch's new addresses (see the
// package comment for the concurrency contract); all column arrays are
// freshly allocated, so prev remains exactly as published.
//
// sortedIPs must be CanonicalIPOrder of prev's table (maintained across
// advances: pass the previous call's result back in). remapOld must be
// monotonically increasing — Merge's record order depends only on record
// content, so inserting records never reorders surviving ones — which is
// what keeps prev's rows sorted under renumbering. A nil remapOld means
// the identity. The result is observably identical to Merge over the
// combined inputs; intern-table order (unobservable) may differ.
func AdvanceObs(dst, prev *ObsStore, remapOld []int32, d *DeltaObs, sortedIPs []uint32) []uint32 {
	next := dst
	next.ips = prev.ips
	// Intern the batch's distinct addresses, reusing the already-parsed
	// netip form. Indices at or above the previous table length are new.
	prevIPs := uint32(next.ips.Len())
	ipRemap := make([]uint32, d.Table.Len())
	for i := range ipRemap {
		s := d.Table.strs[i]
		if j, ok := next.ips.byStr[s]; ok {
			ipRemap[i] = j
		} else {
			ipRemap[i] = next.ips.add(s, d.Table.addrs[i])
		}
	}
	var fresh []uint32
	for _, j := range ipRemap {
		if j >= prevIPs {
			fresh = append(fresh, j)
		}
	}
	slices.Sort(fresh) // intern order; dedup below sorts by string
	fresh = slices.Compact(fresh)
	slices.SortFunc(fresh, func(a, b uint32) int {
		return strings.Compare(next.ips.strs[a], next.ips.strs[b])
	})
	sortedIPs = mergeSortedIdx(sortedIPs, fresh, &next.ips)
	rank := make([]uint32, next.ips.Len())
	for pos, idx := range sortedIPs {
		rank[idx] = uint32(pos)
	}

	// Identity remap (records appended at the end of Published order)
	// keeps prev's torrent IDs — and, combined with a batch that sorts
	// entirely after prev's last row, enables the bulk-copy fast path.
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
		if ra, rb := rank[dIP[a]], rank[dIP[b]]; ra != rb {
			if ra < rb {
				return -1
			}
			return 1
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

	n := prev.Len()
	total := n + m
	tids := make([]int32, total)
	ipIdx := make([]uint32, total)
	atNs := make([]int64, total)
	seed := make([]uint64, (total+63)/64)

	appendDelta := func(k int, j int32) {
		tids[k] = dTid[j]
		ipIdx[k] = dIP[j]
		atNs[k] = d.AtNs[j]
		if d.Seeder[j] {
			seed[k>>6] |= 1 << (uint(k) & 63)
		}
	}
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
		if ra, rb := rank[dIP[j]], rank[prev.ipIdx[i]]; ra != rb {
			return ra < rb
		}
		return prev.Seeder(i) && !d.Seeder[j]
	}

	fastAppend := identity && (n == 0 || m == 0 || !deltaBeforeOld(perm[0], n-1))
	if fastAppend {
		copy(tids, prev.tids)
		copy(ipIdx, prev.ipIdx)
		copy(atNs, prev.atNs)
		copy(seed, prev.seed) // bits beyond n are zero in prev
		for k, j := range perm {
			appendDelta(n+k, j)
		}
	} else {
		i, j, k := 0, 0, 0
		for i < n && j < m {
			if deltaBeforeOld(perm[j], i) {
				appendDelta(k, perm[j])
				j++
			} else {
				tids[k] = prev.tids[i]
				if !identity {
					tids[k] = remapOld[prev.tids[i]]
				}
				ipIdx[k] = prev.ipIdx[i]
				atNs[k] = prev.atNs[i]
				if prev.Seeder(i) {
					seed[k>>6] |= 1 << (uint(k) & 63)
				}
				i++
			}
			k++
		}
		for ; i < n; i, k = i+1, k+1 {
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
		for ; j < m; j, k = j+1, k+1 {
			appendDelta(k, perm[j])
		}
	}
	next.tids, next.ipIdx, next.atNs, next.seed = tids, ipIdx, atNs, seed
	return sortedIPs
}

// mergeSortedIdx merges two string-ordered intern-index lists (fresh
// indices are all new, so no duplicates exist across the lists).
func mergeSortedIdx(sorted, fresh []uint32, t *IPTable) []uint32 {
	if len(fresh) == 0 {
		return sorted
	}
	out := make([]uint32, 0, len(sorted)+len(fresh))
	i, j := 0, 0
	for i < len(sorted) && j < len(fresh) {
		if strings.Compare(t.strs[sorted[i]], t.strs[fresh[j]]) <= 0 {
			out = append(out, sorted[i])
			i++
		} else {
			out = append(out, fresh[j])
			j++
		}
	}
	out = append(out, sorted[i:]...)
	return append(out, fresh[j:]...)
}
