// Incremental advancement of canonical datasets. Merge establishes the
// canonical form — records ordered by (Published, InfoHash) and
// renumbered, observations ordered by (At, TorrentID, IP, Seeder), users
// ordered by username. The helpers here advance an already-canonical
// dataset by a batch of new records/users/observations without
// re-interning or re-sorting the unchanged bulk, producing output
// observably identical to re-running Merge over the combined inputs.
// Records only append: a canonical torrent ID, once assigned, never
// changes, and a batch holding a record that sorts among the existing
// ones is refused (the caller starts over from the empty dataset).
// Users merge-insert; observation rows merge into the columns, read
// straight from the decoded store they arrived in: the caller lists the
// rows to place with their canonical torrent IDs, and leaving a row out
// drops it, as Merge drops a row with no record. internal/delta drives
// them on every lake version bump.
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
	"fmt"
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

// AppendRecords appends add to the canonically ordered record list prev
// (Merge output: sorted by (Published, InfoHash), TorrentID == index).
// add sorts stably by the canonical key and is numbered len(prev)…;
// addIDs[j] is record add[j]'s torrent ID. The result shares prev's
// records by pointer and holds copies of add's, so neither input is
// mutated, and it never writes into prev's spare capacity.
//
// An append is Merge's order only if no added record sorts before prev's
// last; otherwise AppendRecords returns an error naming the added
// record that sorts first. A record tying prev's last key appends: Merge sorts stably and
// an added record is always committed after every record in prev.
func AppendRecords(prev, add []*TorrentRecord) (recs []*TorrentRecord, addIDs []int32, err error) {
	order := make([]int, len(add)) // indices into add, in key order
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return recordKeyCmp(add[a], add[b]) })
	n := len(prev)
	if n > 0 && len(add) > 0 && recordKeyCmp(add[order[0]], prev[n-1]) < 0 {
		return nil, nil, fmt.Errorf("record %s sorts before the last of %d records", add[order[0]].InfoHash, n)
	}
	recs = slices.Grow(prev[:n:n], len(add))
	addIDs = make([]int32, len(add))
	for _, j := range order {
		cp := *add[j]
		cp.TorrentID = len(recs)
		addIDs[j] = int32(cp.TorrentID)
		recs = append(recs, &cp)
	}
	return recs, addIDs, nil
}

// MergeUsers inserts add into the username-ordered user list prev, with
// Merge's tie rule: duplicates of one username stay in commit order
// (add sorted stably, prev first).
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

// AdvanceObs fills dst (which must be zero-valued) with a canonically
// ordered observation store holding prev's rows plus the rows of src
// listed in rows — src row rows[j] under canonical torrent ID canon[j] —
// and returns each listed row's index in dst's intern table. dst shares
// prev's intern table, extended in place with the listed rows' new
// addresses only: an address src carries on unlisted rows alone stays
// out, as Merge keeps a dropped row's address out (see the package
// comment for the concurrency contract).
//
// When every listed row sorts after prev's last row — a live crawl's
// steady state — dst's columns grow in place past prev's length, and a
// built index of prev extends to dst. Only the first advance from prev
// may grow into its tail: a second one gets a private copy of the intern
// table and, like any batch that interleaves with prev's rows, fresh
// column arrays (dst's index then builds on first use). Either way prev
// stays exactly as published. The result is observably identical to
// Merge over the combined inputs; intern-table order (unobservable) may
// differ.
func AdvanceObs(dst, prev, src *ObsStore, rows, canon []int32) []uint32 {
	next := dst
	inPlace := prev.tail.CompareAndSwap(false, true)
	if inPlace {
		next.ips = prev.ips
	} else {
		next.ips = prev.ips.clone()
	}
	// Intern each listed row's address on first sight, reusing the
	// already-parsed netip form: one hash per distinct source address.
	const unmapped = ^uint32(0)
	ipMap := make([]uint32, src.ips.Len())
	for i := range ipMap {
		ipMap[i] = unmapped
	}
	m := len(rows)
	dIP := make([]uint32, m)
	dAt := make([]int64, m)
	for j, r := range rows {
		sip := src.ipIdx[r]
		if ipMap[sip] == unmapped {
			s := src.ips.strs[sip]
			if i, ok := next.ips.byStr[s]; ok {
				ipMap[sip] = i
			} else {
				ipMap[sip] = next.ips.add(s, src.ips.addrs[sip])
			}
		}
		dIP[j], dAt[j] = ipMap[sip], src.atNs[r]
	}
	dSeed := func(j int32) bool { return src.Seeder(int(rows[j])) }
	// The canonical IP tie-break is the address string.
	strs := next.ips.strs
	cmpIP := func(a, b uint32) int {
		if a == b {
			return 0
		}
		return strings.Compare(strs[a], strs[b])
	}

	perm := make([]int32, m)
	for j := range perm {
		perm[j] = int32(j)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if dAt[a] != dAt[b] {
			if dAt[a] < dAt[b] {
				return -1
			}
			return 1
		}
		if canon[a] != canon[b] {
			return int(canon[a]) - int(canon[b])
		}
		if c := cmpIP(dIP[a], dIP[b]); c != 0 {
			return c
		}
		sa, sb := dSeed(a), dSeed(b)
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
		if dAt[j] != prev.atNs[i] {
			return dAt[j] < prev.atNs[i]
		}
		if canon[j] != prev.tids[i] {
			return canon[j] < prev.tids[i]
		}
		if c := cmpIP(dIP[j], prev.ipIdx[i]); c != 0 {
			return c < 0
		}
		return prev.Seeder(i) && !dSeed(j)
	}

	n := prev.Len()
	total := n + m
	seed := make([]uint64, (total+63)/64)
	var tids []int32
	var ipIdx []uint32
	var atNs []int64
	appendDelta := func(k int, j int32) {
		tids[k] = canon[j]
		ipIdx[k] = dIP[j]
		atNs[k] = dAt[j]
		if dSeed(j) {
			seed[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	if inPlace && (n == 0 || m == 0 || !deltaBeforeOld(perm[0], n-1)) {
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
