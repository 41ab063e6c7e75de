// Package btpub reproduces "Is Content Publishing in BitTorrent Altruistic
// or Profit-Driven?" (Cuevas et al., ACM CoNEXT 2010) as a runnable Go
// system: a synthetic BitTorrent ecosystem (portal, tracker, swarms,
// publisher population), the paper's measurement instrument, and the
// analysis pipeline that regenerates every table and figure. README.md
// holds the system inventory; `btpub-experiments -out EXPERIMENTS.md`
// writes the paper-vs-measured results (the file is generated, not kept
// in the tree). The root package holds the benchmark harness
// (bench_test.go).
//
// # Parallel sharded campaign engine
//
// The paper crawled ~55k torrents by polling trackers from hundreds of
// vantage machines at once. The campaign engine reproduces that
// parallelism on two axes:
//
//   - World shards (campaign.Spec.Shards): publishers are partitioned by
//     ID into N shards, and each shard runs a complete portal + tracker +
//     swarms + crawler pipeline on its own goroutine behind its own sim
//     clock. Every random stream is derived purely from (Seed, torrent
//     ID) — never from shared stream state consumed in event order — and
//     the per-shard datasets are merged by dataset.Merge into one
//     canonically ordered dataset. The output is therefore byte-identical
//     for any shard count and any GOMAXPROCS at a fixed Seed; the
//     campaign package's determinism test enforces this for all three
//     dataset styles (pb10/pb09/mn08).
//
//   - One crawl goroutine per shard: the crawler is a single-goroutine
//     state machine on its shard's simclock.Sim. Every poll, fetch,
//     announce and probe runs inside a clock callback on the goroutine
//     advancing the clock, so the crawler holds no lock and starts no
//     goroutine; its vantages (the paper's independent crawling
//     machines) take turns on that clock, and each query's full effect
//     is recorded before the clock proceeds. The campaign's context
//     governs the crawl (campaign.RunContext); Spec.Workers is ignored.
//
//   - Sockets (campaign.Spec.Sockets / btpub-crawl -sockets): each shard
//     serves its portal and tracker over a loopback HTTP server and its
//     peers over the ecosystem's TCP gateway, crawled through HTTPPortal,
//     HTTPTracker and GatewayProber. The same sim clock drives both
//     transports and every request is answered at its callback's
//     instant, so the dataset is byte-identical to the in-process crawl.
//
// btpub-experiments -sweep runs a grid of Specs (style × seed) one
// campaign after another, each sharded across all cores — the
// multi-campaign re-run the follow-up studies (TorrentGuard, the
// multimedia-evolution study) needed.
//
// # Columnar observation store
//
// Tracker observations dominate every dataset (pb10: ~27k torrents,
// millions of IP sightings), so dataset stores them columnar instead of
// as rows of structs: dataset.ObsStore keeps parallel slices of int32
// torrent ID, uint32 interned-IP index and int64 unix-nanosecond
// timestamp plus a seeder bitset, backed by a dataset.IPTable that
// interns each distinct address exactly once (string identity, parsed
// netip.Addr kept alongside). A sighting costs ~16 flat bytes instead of
// a 56-byte struct plus a heap string; the crawler appends via the
// interned fast path, so repeat sightings of a known address allocate
// nothing.
//
// The JSONL codec keeps the on-disk format byte-identical to the old
// encoding/json output for UTC data (all the simulator and crawler ever
// produce; non-UTC offsets re-encode as the same instant in UTC, and
// instants outside the int64-nanosecond range are rejected at Read) while
// hand-rolling the observation-line encode and decode paths (≈8x faster encode with ~zero allocations, decode
// allocating only per distinct address); anything non-canonical falls
// back to encoding/json, so exotic input is slower, never wrong. A golden
// file plus a fuzz target hold the fast paths to exact equivalence.
// dataset.Merge remaps each shard's intern table once, counts (and logs)
// observations whose torrent record is missing instead of dropping them
// silently, and sorts over fixed-width keys.
//
// # Index-once analysis
//
// analysis.New takes canonical input — record i carries TorrentID i and
// every observation names a record, as dataset.Merge and the lake's
// readers produce it (btpub-analyze runs a JSONL file through Merge
// first); anything else is an error, not a silently sparse index. It
// builds one immutable index over the store, every per-torrent table a
// slice indexed by torrent ID: publisher addresses parsed and
// geo-resolved exactly once (classify.Facts.Pubs, which also fills the
// per-user ISP sets), per-user interned-IP sets, and the ISP aggregates
// behind Tables 2–3 and Section 6.
// Per-torrent observation spans are the store's own index (a counting
// sort, extended in place by incremental refreshes), and the per-IP
// inversion the Figure 4 seeding estimator walks is a counting sort built
// on the first Seeding call, so snapshots that never serve Figure 4 never
// pay for it. Every consumer — Summary, Skewness, ISPTable, ContrastISPs,
// Seeding, HostingIncomeFor — reads the index instead of rebuilding maps
// or re-parsing address strings per call: Table 1 and Section 6 become
// O(1) reads, and the Figure 4 seeding estimator walks each publisher's
// own sightings rather than every observation of every torrent it fed
// (~14x on the Figure 4 benchmarks, ~100,000x on Table 1).
//
// # Observation lake + query server
//
// internal/lake is the persistent, append-only successor to loading one
// JSONL file per run: writers (campaign.Run via Spec.Lake, the crawler
// via its Config.Sink hook, JSONL imports) append observations through
// one row path and seal them into
// immutable columnar segment files — the ObsStore columns behind two
// sorted dictionaries (distinct addresses, distinct torrent IDs),
// per-segment zone maps (min/max time, min/max torrent ID) and a
// CRC-32C footer — recorded in an append-only
// commit journal. A torrent ID is reserved the moment the lake accepts a
// record or a row naming it, so an import's ID base clears pending
// records and buffered rows. The journal is
// the source of truth and the commit history at once: one fsynced,
// CRC-32C-framed record per committed version, versions dense from 1
// (record v is version v, one record kind), each record hash-chained
// over its parent; the state at version v is the fold of the first v
// records. A crash at any instant leaves the previous
// committed state: Open replays the journal to head, repairs a torn
// tail (complete-frame corruption is refused), deletes orphans, and
// size-checks referenced segments; Verify runs a full CRC-and-decode
// pass (every segment's zone maps, in the file and in the journal,
// against its rows) plus a journal-replay cross-check that also holds
// the journal's records against the served ones. Torrent and user
// records ride inside the journal record of the commit that adds them:
// they are decoded once, at Open, with the history, and each flush
// appends to the same lists, so the records at version v are their
// first Torrents (and Users) entries and every reader shares a slice of
// them read-only. A lake directory holds JOURNAL and seg-*.obs and
// nothing else; a lake in an older format is refused at Open, not
// migrated. Because the history
// is on disk, any committed version can be served
// again: Predicate.AsOf (query Filter.AsOf, btpub-query -as-of, "as_of"
// on POST /api/v1/query) pins a scan and TorrentRecords the
// records, replaying a query reproducibly while ingest continues; unavailable
// versions fail with a typed VersionUnavailableError, never a wrong
// answer. Segments compress their columns stdlib-only — GCD-scaled
// delta-varint timestamps, dictionary-coded torrent IDs and IPs, raw
// seeder words. The dictionary is the index: both are written strictly
// ascending and the key columns store positions in them, so a key that
// is not in the dictionary is on no row — they are the segment's
// postings, covered by its CRC and unable to disagree with its rows. For point lookups the scan planner consults postings —
// exact, not probabilistic, memoized per immutable segment file — after
// the free zone-map pass and opens only segments that contain the key;
// an opened segment finds a wanted address by binary search. Scan
// prunes segments on the journal's zone maps and those postings alone
// and decodes survivors in committed order on the caller's goroutine;
// a background compactor folds small segments in the canonical Merge
// order while concurrent readers keep their snapshot. Materialize canonicalises the
// committed state back into a dataset.Dataset that is byte-identical to
// the imported JSONL for any flush size and compaction history (golden
// tests enforce this); btpub-analyze feeds it to the index-once
// analysis, and analysis.NewFromLakeVersion does the same as the oracle
// the served snapshots are tested against.
//
// internal/lakeserve + cmd/btpub-serve expose the lake over HTTP while
// writers append: analysis snapshots are cached per journal version
// (stamped with the exact version the maintainer folded, so a commit
// racing the build never forces a redundant rebuild; stale-while-
// revalidate). One build lock (Server.buildMu) owns the build path —
// maintainer refresh, alert evaluation, classification — and both the
// synchronous first build and every background rebuild hold it, so
// builds run one at a time in version order and a first request that
// finds a background build running waits for it: many concurrent
// /tables requests over a live lake cost one build per committed
// version, on a cold start too. Every torrent ID the API emits or
// accepts is the lake's (/torrents/recent included), never the
// snapshot's canonical numbering.
// Migration from JSONL:
// `btpub-analyze -in pb10.jsonl -import pb10.lake`, thereafter
// `btpub-analyze -lake pb10.lake` / `btpub-serve -lake pb10.lake`.
//
// # Unified query API (/api/v1)
//
// internal/query is the one composable query engine behind every API
// surface: query.Query{Filter{MinTime, MaxTime, TorrentIDs, Publishers,
// ISPs, Countries, SeedersOnly, AsOf}, GroupBy{publisher|isp|country|torrent|
// content-type|time-bucket}, Aggs{observations, distinct-ips, seeders,
// torrents, max-swarm}, OrderBy, Limit, Cursor}, with two executors
// required (and tested, over an adversarial-scenario campaign) to
// return identical rows: query.NewMemory runs over an in-memory
// dataset, query.NewLake compiles the filter (including Filter.IPs,
// the address point-lookup) into a lake.Predicate and folds the
// streamed batches without materializing a dataset. The lake executor
// plans before reading data — zone-map pruning (a 2% time-window
// grouped aggregate over a 1M-observation lake opens at most two
// segments), exact postings pruning of the segments that survive, and
// cheapest-column-first ordering of the row predicates (time, then
// seeder bit, then torrent ID, then IP; each opened segment rewrites
// the IP predicate into a bitset over its dictionary positions) — then
// streams the surviving segments into one collector, finished under one
// total row order. Lake.Explain (btpub-query -explain) reports the plan
// — predicate order and per-stage segment pruning — without executing.
// Grouped rows order deterministically (OrderBy field, then key), paginate via
// opaque cursors signed against the query, and every invalid query
// yields a structured *query.Error (FuzzQueryDecode holds the decoder
// to that).
//
// internal/lakeserve mounts everything under the versioned /api/v1
// prefix: POST /api/v1/query plus the canned views (/stats,
// /tables/{1,2,3}, /top-publishers, /publishers/classified,
// /publishers/{name}, /fakes, /torrents/recent and
// /torrents/{id}/observations — the latter reimplemented as a canned
// Select-observations query through the same executor). The listings,
// the per-publisher page and the alert feed are the paper's Section 7
// service — a publisher database that flags fake publishers and shows
// each publisher's IPs, ISPs and promoted site — which btpub-serve runs
// over an existing lake or, with -live, a campaign in progress. Nothing
// is mounted outside the prefix; every 4xx/5xx carries the {"error":
// {code, message}} envelope — including the mux's own 404/405 — and
// the shared GET parameters (n, limit, format, isps) are
// bounds-checked by one helper instead of per-handler parsing.
// internal/apiclient speaks the wire format from Go (typed errors from
// the envelope); cmd/btpub-query compiles flags into a Query against a
// local lake or a remote server; btpub-analyze -remote renders the
// server's tables; and btpub-serve drains in-flight requests via
// http.Server.Shutdown on SIGINT/SIGTERM, cancels background rebuilds
// (Server.Close), then closes the lake.
//
// # Fault injection and resilient serving
//
// Every lake I/O goes through the internal/vfs seam (lake.Options.FS;
// default vfs.OS, a thin veneer over package os), and
// internal/vfs/faultfs is the deterministic, seeded, in-memory
// implementation that tortures it: one global op counter makes fault
// schedules replayable, FailAt injects EIO/ENOSPC at op k, CrashAt
// simulates a machine death there — file bytes survive only to the
// last fsync (torn mode keeps a seeded-random prefix of the un-synced
// tail), metadata journals immediately, Recover() hands back the
// surviving disk — and SetReadError/BlockReads flip reads to failing
// or parked mid-serve. TestKillPointTorture records the full op
// sequence of a reopen->flush->query->compact->reindex workload
// (starting from a closed lake with committed rows so a journal replay
// runs under fire; a flush
// or a compaction is one segment create/write/sync/close, then the
// journal append) and replays it with a
// crash at every op index (clean and torn), asserting the survivor
// reopens without Salvage, passes Verify, holds exactly a committed
// prefix of the appends, and recovers to a journal version the
// workload actually committed; TestInjectedIOErrors sweeps
// EIO/ENOSPC through the same sequence. CI samples 64 kill points
// under -race on every push; `make test-faults` and nightly CI
// enumerate all of them (BTPUB_FAULT_KILLPOINTS=all).
//
// The serving tier bounds and reports its failure modes: admission
// control (Server.MaxConcurrent, default 128; excess requests shed
// with 429 + Retry-After and the "overloaded" envelope), a per-request
// timeout (Server.RequestTimeout, default 30s; expiry is a 503
// "timeout" envelope) wrapped outside admission so slots release only
// when abandoned handlers finish, /healthz and /readyz probes that
// bypass both (readyz = lake open + first snapshot built, and kicks
// the build while unready), and a circuit breaker with exponential
// backoff (Server.RefreshBackoff) around background snapshot rebuilds,
// which run under the server lifecycle context rather than the kicking
// request's. Degraded operation is visible, never silent: responses
// carry X-Btpub-Snapshot-Version, plus X-Btpub-Snapshot-Stale when the
// snapshot lags the lake and X-Btpub-Degraded: rebuild-failed when the
// lag comes from failing rebuilds, while /api/v1/stats reports
// refresh_state, last_refresh_error and stale — without waiting for a
// running rebuild. internal/apiclient
// defaults to a 30s exchange timeout and transparently retries
// idempotent requests (GET, and the read-only POST /query) on
// 429/503/transport errors with jittered exponential backoff honoring
// Retry-After; btpub-serve exposes -max-concurrent/-request-timeout,
// and btpub-query/btpub-analyze take -timeout for their remote modes.
//
// # Streaming ingest: incremental snapshots and online alerts
//
// A Materialize + analysis.New rebuild per committed version is O(lake)
// work per refresh. internal/delta makes the refresh incremental, with
// one build path: a Maintainer owns a snapshot lineage and, on each
// Refresh, diffs the commit journal against the version it last served.
// A diff of new segments and records folds just those rows, and the
// records the lake's in-memory lists gained in the range, into the
// live analysis and reports mode=delta plus exactly which publisher
// identities changed. A compaction commits as a rewrite — the same rows
// in fewer files — so one whose victims the snapshot already holds
// folds as an empty delta with nobody changed. A fold only appends
// records, so a canonical torrent ID never changes within a lineage.
// After a content retirement (salvage, or a compaction that consumed a
// segment flushed since the served version), after a committed record
// that sorts among the served ones or one whose rows came first, and on
// the first build, the same fold runs over the whole lake from an empty
// lineage and reports mode=full. The lineage holds no observations: a
// row whose record is not committed is dropped and counted, exactly as
// Materialize drops it, until that record restarts the fold. Canonical order is total — dataset.Merge sorts stably, so
// records sharing a (Published, InfoHash) key and users sharing a name
// keep commit order, and a record tying the last served key appends —
// which is why no lake needs a second path. The fold is held honest by
// a canonical analysis fingerprint: under -race, with a campaign
// appending and the compactor churning, every maintained snapshot must
// fingerprint byte-identical to the from-scratch oracle
// (analysis.NewFromLakeVersion) at the same version, and mode=full is
// pinned to exactly the journal diff's content-retirement condition, the
// mid-order record and the late one. On the 1M-observation bench lake the
// incremental fold runs ~65x faster than the full rebuild; the benchmark itself fails below 10x or past
// its allocs/op ceiling, and a second one fails if the same fold costs
// more than 1.5x as much on a lake with 4x the rows.
//
// internal/alert turns each refresh into online fake/scam detection, a
// TorrentGuard-style classifier running at ingest instead of post-hoc:
// Engine.Evaluate scores the snapshot's changed identities (all of
// them after a full rebuild, including vanished ones so their alerts
// resolve) against four rules — upload-burst (a blitz wave's mass
// publishing inside a sliding window), alias-cluster (several
// usernames publishing from one shared seeder address), ip-churn (one
// username across many publisher addresses) and fake-signal (the
// classify-layer evidence: account deletion, takedown majority) —
// accumulating scores into warning/critical severities. Alerts are
// deduplicated by rule+subject, versioned with the journal versions
// that fired/updated/resolved them, and served as a cursorable feed:
// GET /api/v1/alerts?since=V returns alerts updated past the cursor,
// ?wait= long-polls (clamped under the request timeout — a quiet
// server answers an empty 200, never a 503). apiclient.Alerts and
// btpub-query -alerts consume the feed; /api/v1/stats reports
// refresh_mode, delta_refreshes, full_rebuilds and the last delta's
// size. Push delivery is a pluggable alert.Notifier — btpub-serve
// -live logs changed alerts and -alert-webhook POSTs them — with alert
// state committed before delivery, so a failing sink degrades push,
// never the feed; -live also self-polls so detection keeps pace with
// ingest without query traffic. The end-to-end gate replays a
// ScenarioFakeBlitz campaign into a live lake in time slices and
// requires the blitz publishers to be firing before the campaign
// finishes, from crawl observations alone.
//
// # Adversarial publisher scenarios
//
// population.Scenario (campaign.Spec.Scenarios; -scenarios on
// btpub-experiments and btpub-serve -live) layers the hostile behaviour
// profiles the paper's crawler met in the wild over the cooperative base
// world: username aliasing (one operator, several accounts sharing a
// hosted seeder pool), fast per-upload IP churn, an antipiracy agency
// mass-publishing a decoy wave that moderation tears back out, and
// wholesale mid-campaign account deletion (Portal.SuspendAccount removes
// an account and every live upload at once). The classify package
// recovers the plants from crawl data alone: UserFacts.Downloads counts
// distinct downloader IPs per username (not per torrent), account
// deletion lands on the resolved identity (so mn08-style "ip:<addr>"
// publishers can carry the signal), Facts.AliasClusters links usernames
// through shared identified seeder IPs and propagates the fake signals
// across each cluster, and Facts.MergeAliasClusters folds clusters into
// operator-level entities before group building and business
// classification. Scenario worlds honour the same sharded-vs-serial
// byte-identity contract, and TestAdversarialScenarioRecovery gates the
// whole loop end to end, including over the /publishers/classified and
// /fakes endpoints.
//
// # Static analysis: the btpub-vet suite
//
// internal/lint mechanizes the repo's conventions as five custom
// analyzers over the type-checked AST, built on the standard library
// alone (go/ast + go/types, with export data from `go list -export`):
// vfsonly (internal/lake must reach the filesystem only through the
// vfs.FS seam, or the faultfs kill-point torture can't inject faults
// into the call), determinism (no time.Now/Since/Until, no
// math/rand{,/v2} imports, and no map-iteration-ordered output in the
// simulation packages — use the simclock.Clock and rng.Labeled seams
// that make sharded campaigns byte-identical), nobgctx (no
// context.Background/TODO outside main/run in package main), envelope
// (lakeserve handlers write error statuses only through the envelope
// helpers), and errfmtverb (fmt.Errorf wraps error operands with %w).
// cmd/btpub-vet drives them over the whole module (what `make lint`
// runs). Deliberate exceptions — the peer gateway's wall-clock
// connection deadline, lifecycle root contexts — are grandfathered in
// ci/lint-allow.txt with a mandatory
// reason per line; a stale entry (its finding fixed) itself fails the
// run, so the debt list only shrinks, and the nightly lint-debt job
// publishes the unfiltered report. Fixture packages under
// internal/lint/testdata/src pin each analyzer's violation/legal
// boundary, and TestTreeCompliance keeps the whole module clean.
//
// The tier-1 gate is `go build ./... && go test ./...`. CI
// (.github/workflows/ci.yml) stages the rest behind a fast lint job
// (gofmt, build, vet, btpub-vet — with the Go build cache restored per
// job), so
// cheap failures never cost a race run: the test job runs the race
// detector (including the lake's reader-during-compaction tests, the
// sampled kill-point torture and the executor equivalence gate's as_of
// pins under a concurrent writer), 15-second fuzz smokes of
// every Fuzz* target — discovered by listing, seeded from the
// checked-in corpora under each package's testdata/fuzz/ — and a
// dirty-working-tree check; the bench-smoke job runs a 1x pass of the
// campaign, lake, query-engine and snapshot-refresh benchmarks, each of
// which fails itself past the allocs/op ceiling written beside it
// (meterAllocs, allocs_test.go), so allocation regressions fail loudly.
// The pipeline's performance ledger is bench/ (bash bench/run.sh,
// declared by BENCHMARK.json): end to end and layer by layer, with the
// machine context. A nightly workflow (.github/workflows/nightly.yml)
// fuzzes every target for 5 minutes, runs the exhaustive kill-point
// torture (make test-faults), and runs bench/ over all four workloads,
// untraced and traced, plus `make bench` (E1–E15), uploading both
// outputs as the run's artifact. See README.md for the shard
// knobs on each binary and the measured speedups.
package btpub
