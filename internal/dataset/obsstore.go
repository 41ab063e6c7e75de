// Columnar observation storage. The paper's datasets are dominated by
// tracker observations (pb10: millions of IP sightings over ~27k
// torrents); storing them as rows of structs costs a heap string and a
// 24-byte time.Time per sighting and forces every analysis pass to re-parse
// and re-hash the same addresses. ObsStore instead keeps four parallel
// fixed-width columns — torrent ID, interned-IP index, unix-nanosecond
// timestamp, seeder bit — backed by an IPTable that interns each distinct
// address exactly once. Observation remains the logical record type;
// materialize one with ObsStore.At when struct form is needed.
package dataset

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// IPTable interns IP address strings. The string form is the identity (two
// spellings of the same address stay distinct, exactly as the row-of-structs
// storage treated them); the parsed netip.Addr is kept alongside so
// consumers never re-parse, and is the zero Addr for strings that are not
// valid addresses.
type IPTable struct {
	byStr  map[string]uint32
	byAddr map[netip.Addr]uint32
	strs   []string
	addrs  []netip.Addr
}

// Len returns the number of distinct interned addresses.
func (t *IPTable) Len() int { return len(t.strs) }

// String returns the interned string for index i.
func (t *IPTable) String(i uint32) string { return t.strs[i] }

// Addr returns the parsed address for index i (zero Addr when the interned
// string is not a valid IP).
func (t *IPTable) Addr(i uint32) netip.Addr { return t.addrs[i] }

// Lookup finds the index of an already-interned string.
func (t *IPTable) Lookup(s string) (uint32, bool) {
	i, ok := t.byStr[s]
	return i, ok
}

// internBytes interns a byte-slice key, allocating only when the string is
// new (the compiler elides the conversion in the map lookup) — the JSONL
// decoder's per-line path.
func (t *IPTable) internBytes(b []byte) uint32 {
	if i, ok := t.byStr[string(b)]; ok {
		return i
	}
	return t.InternString(string(b))
}

// InternString interns s, parsing it once.
func (t *IPTable) InternString(s string) uint32 {
	if i, ok := t.byStr[s]; ok {
		return i
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		addr = netip.Addr{}
	}
	return t.add(s, addr)
}

// InternAddr interns a parsed address, computing its string form only on
// first sight. The entry is shared with InternString of the same canonical
// string.
func (t *IPTable) InternAddr(a netip.Addr) uint32 {
	if i, ok := t.byAddr[a]; ok {
		return i
	}
	s := a.String()
	if i, ok := t.byStr[s]; ok {
		if t.byAddr == nil {
			t.byAddr = make(map[netip.Addr]uint32)
		}
		t.byAddr[a] = i
		return i
	}
	i := t.add(s, a)
	if t.byAddr == nil {
		t.byAddr = make(map[netip.Addr]uint32)
	}
	t.byAddr[a] = i
	return i
}

// clone returns a copy of t that shares its published entries but no
// capacity or maps with it, so interning into the copy never writes
// where t, or another table extended from t, reads.
func (t *IPTable) clone() IPTable {
	c := IPTable{strs: slices.Clip(t.strs), addrs: slices.Clip(t.addrs)}
	c.byStr = make(map[string]uint32, len(c.strs))
	for i, s := range c.strs {
		c.byStr[s] = uint32(i)
	}
	return c
}

func (t *IPTable) add(s string, addr netip.Addr) uint32 {
	if t.byStr == nil {
		t.byStr = make(map[string]uint32)
	}
	i := uint32(len(t.strs))
	t.byStr[s] = i
	t.strs = append(t.strs, s)
	t.addrs = append(t.addrs, addr)
	return i
}

// ObsStore is the columnar observation container: parallel slices of
// torrent ID, interned-IP index and unix-nanosecond timestamp plus a
// seeder bitset. The zero value is ready to use. Appends are not safe for
// concurrent use (callers serialize, as they did for the slice it
// replaces); read-side methods are safe once writing stops.
type ObsStore struct {
	ips   IPTable
	tids  []int32
	ipIdx []uint32
	atNs  []int64
	seed  []uint64 // bitset, one bit per observation

	// tail is set once AdvanceObs has claimed the spare capacity past Len
	// in the intern table, the columns and the index spans for the one
	// successor that grows into it; a later advance from this store
	// copies instead.
	tail atomic.Bool

	idxMu  sync.Mutex
	idx    *ObsIndex
	idxLen int
}

// Len returns the number of stored observations.
func (s *ObsStore) Len() int { return len(s.tids) }

// IPs exposes the intern table (distinct observed addresses).
func (s *ObsStore) IPs() *IPTable { return &s.ips }

// TorrentID returns observation i's torrent ID.
func (s *ObsStore) TorrentID(i int) int { return int(s.tids[i]) }

// IPIndex returns observation i's intern-table index.
func (s *ObsStore) IPIndex(i int) uint32 { return s.ipIdx[i] }

// IPString returns observation i's address string.
func (s *ObsStore) IPString(i int) string { return s.ips.strs[s.ipIdx[i]] }

// Addr returns observation i's parsed address (zero Addr when invalid).
func (s *ObsStore) Addr(i int) netip.Addr { return s.ips.addrs[s.ipIdx[i]] }

// UnixNano returns observation i's timestamp in unix nanoseconds.
func (s *ObsStore) UnixNano(i int) int64 { return s.atNs[i] }

// Time returns observation i's timestamp. Timestamps are stored as UTC
// instants: a non-UTC zone read from disk is preserved as the same instant.
func (s *ObsStore) Time(i int) time.Time { return time.Unix(0, s.atNs[i]).UTC() }

// Seeder reports observation i's seeder flag.
func (s *ObsStore) Seeder(i int) bool { return s.seed[i>>6]&(1<<(uint(i)&63)) != 0 }

// At materializes observation i as the struct record.
func (s *ObsStore) At(i int) Observation {
	return Observation{
		TorrentID: int(s.tids[i]),
		IP:        s.IPString(i),
		At:        s.Time(i),
		Seeder:    s.Seeder(i),
	}
}

// Append adds an observation given its struct form. It panics on a
// timestamp UnixNano refuses.
func (s *ObsStore) Append(o Observation) {
	s.push(int32(o.TorrentID), s.ips.InternString(o.IP), mustUnixNano(o.At), o.Seeder)
}

// MaxTorrentID bounds torrent IDs: the columnar store keys dense int32
// sequence numbers, so an ID outside [0, MaxTorrentID] is corruption, not
// data, wherever it arrives.
const MaxTorrentID = 1<<31 - 1

// UnixNano converts an observation timestamp to the column form, refusing
// instants the int64-nanosecond range cannot hold (years outside
// 1678–2261): time.Time.UnixNano would silently overflow there.
func UnixNano(at time.Time) (int64, error) {
	if y := at.Year(); y < 1678 || y > 2261 {
		return 0, fmt.Errorf("observation timestamp %v outside the unix-nanosecond range (years 1678-2261)", at)
	}
	return at.UnixNano(), nil
}

// mustUnixNano is UnixNano for the in-memory append paths, panicking
// where UnixNano refuses. Decoders reject such input with an error before
// reaching this.
func mustUnixNano(t time.Time) int64 {
	ns, err := UnixNano(t)
	if err != nil {
		panic("dataset: " + err.Error())
	}
	return ns
}

// AppendAddr adds an observation from a parsed address, interning its
// string form only the first time the address is seen. This is the
// crawler's fast path: repeat sightings cost no allocation. Like Append,
// it panics on a timestamp UnixNano refuses.
func (s *ObsStore) AppendAddr(tid int, addr netip.Addr, at time.Time, seeder bool) {
	s.push(int32(tid), s.ips.InternAddr(addr), mustUnixNano(at), seeder)
}

// AppendRaw adds an observation whose address is already interned in this
// store's table — the bulk-transfer path for consumers (segment decoders,
// lake materialization) that intern each distinct address once and then
// append rows at column speed. ipIdx must come from this store's IPs()
// table; out-of-range indices panic rather than corrupt the columns.
func (s *ObsStore) AppendRaw(tid int32, ipIdx uint32, atNs int64, seeder bool) {
	if int(ipIdx) >= s.ips.Len() {
		panic(fmt.Sprintf("dataset: AppendRaw ipIdx %d outside intern table (len %d)", ipIdx, s.ips.Len()))
	}
	s.push(tid, ipIdx, atNs, seeder)
}

func (s *ObsStore) push(tid int32, ipIdx uint32, atNs int64, seeder bool) {
	if tid < 0 {
		// Torrent IDs are dense crawler-assigned sequence numbers; failing
		// here beats an index-out-of-range deep inside buildIndex later.
		panic(fmt.Sprintf("dataset: negative TorrentID %d", tid))
	}
	i := len(s.tids)
	s.tids = append(s.tids, tid)
	s.ipIdx = append(s.ipIdx, ipIdx)
	s.atNs = append(s.atNs, atNs)
	if i>>6 >= len(s.seed) {
		s.seed = append(s.seed, 0)
	}
	if seeder {
		s.seed[i>>6] |= 1 << (uint(i) & 63)
	}
}

// grow pre-allocates capacity for n additional observations.
func (s *ObsStore) grow(n int) {
	words := (len(s.tids) + n + 63) / 64
	s.tids = slices.Grow(s.tids, n)
	s.ipIdx = slices.Grow(s.ipIdx, n)
	s.atNs = slices.Grow(s.atNs, n)
	s.seed = slices.Grow(s.seed, max(words-len(s.seed), 0))
}

// ---------------------------------------------------------------------
// One-pass per-torrent index
// ---------------------------------------------------------------------

// ObsIndex groups a store's observations by torrent: Span(t) lists the
// indices of torrent t's observations in time order. Built once per
// store state and shared by every analysis consumer; AdvanceObs's append
// path extends it to the successor store instead of rebuilding it.
type ObsIndex struct {
	spans [][]int32 // spans[t]: torrent t's observation indices
}

// Span returns the time-ordered observation indices of torrent tid (empty
// for unknown torrents).
func (ix *ObsIndex) Span(tid int) []int32 {
	if tid < 0 || tid >= len(ix.spans) {
		return nil
	}
	return ix.spans[tid]
}

// Torrents returns the number of torrent ID slots (max torrent ID + 1).
func (ix *ObsIndex) Torrents() int { return len(ix.spans) }

// Index returns the per-torrent index for the store's current contents,
// building it on first use and rebuilding only after appends.
func (s *ObsStore) Index() *ObsIndex {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idx != nil && s.idxLen == len(s.tids) {
		return s.idx
	}
	s.idx = s.buildIndex()
	s.idxLen = len(s.tids)
	return s.idx
}

// builtIndex returns the index when it is current, nil otherwise.
func (s *ObsStore) builtIndex() *ObsIndex {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.idxLen != len(s.tids) {
		return nil
	}
	return s.idx
}

// buildIndex counting-sorts the observation indices by torrent into one
// array and slices it into spans capped at their length, so extending a
// span (ObsIndex.extend) never writes into its neighbour.
func (s *ObsStore) buildIndex() *ObsIndex {
	maxTID := -1
	for _, t := range s.tids {
		if int(t) > maxTID {
			maxTID = int(t)
		}
	}
	starts := make([]int32, maxTID+2)
	for _, t := range s.tids {
		starts[t+1]++
	}
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
	order := make([]int32, len(s.tids))
	next := make([]int32, maxTID+1)
	copy(next, starts[:maxTID+1])
	for i, t := range s.tids {
		order[next[t]] = int32(i)
		next[t]++
	}
	spans := make([][]int32, maxTID+1)
	for t := range spans {
		span := order[starts[t]:starts[t+1]:starts[t+1]]
		// Appends normally arrive in time order (the sim clock replays
		// events chronologically and Merge sorts canonically), so the
		// stable counting sort leaves each span time-sorted already;
		// repair any span that is not, so hand-built datasets index
		// correctly too.
		for i := 1; i < len(span); i++ {
			if s.atNs[span[i]] < s.atNs[span[i-1]] {
				insertionSortByTime(span, s.atNs)
				break
			}
		}
		spans[t] = span
	}
	return &ObsIndex{spans: spans}
}

// extend returns the index of a store that holds ix's rows followed by
// rows first, first+1, … of torrents tids, none earlier in time than
// an indexed row, so every span stays time-ordered. The span headers are
// copied; the rows are appended past the end of ix's spans, which ix
// never reads — the caller must hold the store's tail (see AdvanceObs).
func (ix *ObsIndex) extend(tids []int32, first int) *ObsIndex {
	n := len(ix.spans)
	for _, t := range tids {
		n = max(n, int(t)+1)
	}
	spans := make([][]int32, n)
	copy(spans, ix.spans)
	for k, t := range tids {
		spans[t] = append(spans[t], int32(first+k))
	}
	return &ObsIndex{spans: spans}
}

// insertionSortByTime stably sorts a span of observation indices by
// timestamp (spans are near-sorted when not already sorted).
func insertionSortByTime(span []int32, atNs []int64) {
	for i := 1; i < len(span); i++ {
		for j := i; j > 0 && atNs[span[j]] < atNs[span[j-1]]; j-- {
			span[j], span[j-1] = span[j-1], span[j]
		}
	}
}

// DistinctIPCounts returns, per torrent ID slot, the number of distinct
// addresses observed in that torrent — one pass over the index with a
// stamp array instead of a map of sets.
func (s *ObsStore) DistinctIPCounts() []int {
	ix := s.Index()
	counts := make([]int, ix.Torrents())
	stamp := make([]int32, s.ips.Len())
	for i := range stamp {
		stamp[i] = -1
	}
	for t := range counts {
		mark := int32(t)
		n := 0
		for _, oi := range ix.Span(t) {
			if ip := s.ipIdx[oi]; stamp[ip] != mark {
				stamp[ip] = mark
				n++
			}
		}
		counts[t] = n
	}
	return counts
}
