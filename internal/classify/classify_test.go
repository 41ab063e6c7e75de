package classify

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"btpub/internal/dataset"
	"btpub/internal/geoip"
	"btpub/internal/population"
)

var t0 = time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)

// buildDB gives two ISPs: one hosting, two commercial.
func buildDB(t *testing.T) *geoip.DB {
	t.Helper()
	db, err := geoip.NewBuilder(netip.MustParseAddr("11.0.0.0")).
		AddISP("HostCo", geoip.Hosting, 2, []geoip.Location{{Country: "FR", City: "Paris"}}).
		AddISP("CableA", geoip.Commercial, 4, []geoip.Location{{Country: "US", City: "Denver"}}).
		AddISP("CableB", geoip.Commercial, 4, []geoip.Location{{Country: "US", City: "Miami"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// synthDataset builds a controlled dataset:
//   - "bigpub" publishes 10 torrents from one hosting IP pool (2 IPs)
//   - "homepub" publishes 6 torrents from 3 IPs in one commercial ISP
//   - "roamer" publishes 5 torrents from 2 ISPs
//   - "single" publishes 4 torrents from one IP
//   - "ghost1/2" share one IP, both accounts deleted (fake)
//   - 20 small one-torrent publishers
func synthDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := &dataset.Dataset{Name: "synth", Start: t0, End: t0.AddDate(0, 1, 0)}
	id := 0
	add := func(user, ip, desc, fname string, bundled []string, removed bool, downloads int) {
		rec := &dataset.TorrentRecord{
			TorrentID: id, InfoHash: fmt.Sprintf("%040d", id),
			Title: fmt.Sprintf("T%d", id), Category: "Video > Movies",
			Username: user, PublisherIP: ip, Published: t0.Add(time.Duration(id) * time.Hour),
			Description: desc, FileName: fname, BundledFiles: bundled, Removed: removed,
		}
		ds.AddTorrent(rec)
		for d := 0; d < downloads; d++ {
			ds.AddObservation(dataset.Observation{
				TorrentID: id,
				IP:        fmt.Sprintf("99.1.%d.%d", id, d),
				At:        t0.Add(time.Duration(id)*time.Hour + time.Minute),
			})
		}
		id++
	}
	// bigpub: hosting pool, promotes www.bigpub.com in the textbox.
	for i := 0; i < 10; i++ {
		ip := "11.0.0.10"
		if i%2 == 1 {
			ip = "11.1.0.11"
		}
		add("bigpub", ip, "visit www.bigpub.com for more", "file.avi", nil, false, 40)
	}
	// homepub: dynamic IPs in CableA (11.2-11.5), no promotion.
	for i := 0; i < 6; i++ {
		add("homepub", fmt.Sprintf("11.%d.0.7", 2+i%3), "enjoy!", "file.avi", nil, false, 10)
	}
	// roamer: multi-ISP (CableA + CableB), promotes via filename.
	for i := 0; i < 5; i++ {
		ip := "11.2.9.9"
		if i%2 == 1 {
			ip = "11.6.9.9" // CableB
		}
		add("roamer", ip, "no links here", "movie-www.roampix.com.avi", nil, false, 20)
	}
	// single: one IP, promotes via bundled file.
	for i := 0; i < 4; i++ {
		add("single", "11.3.0.40", "plain", "file.avi",
			[]string{"Visit www.singleboard.org.txt"}, false, 15)
	}
	// ghosts: same IP, removed torrents, deleted accounts.
	for i := 0; i < 3; i++ {
		add("ghost1", "11.0.0.66", "great quality", "fake.avi", nil, true, 5)
	}
	for i := 0; i < 3; i++ {
		add("ghost2", "11.0.0.66", "great quality", "fake.avi", nil, true, 5)
	}
	// long tail
	for i := 0; i < 20; i++ {
		add(fmt.Sprintf("tail%02d", i), "", "nothing", "file.avi", nil, false, 2)
	}
	ds.Users = []dataset.UserRecord{
		{Username: "bigpub", Exists: true, FirstUpload: t0.AddDate(-1, 0, 0), TotalUploads: 300},
		{Username: "homepub", Exists: true, FirstUpload: t0.AddDate(0, -6, 0), TotalUploads: 50},
		{Username: "roamer", Exists: true, FirstUpload: t0.AddDate(0, -3, 0), TotalUploads: 30},
		{Username: "single", Exists: true, FirstUpload: t0.AddDate(-2, 0, 0), TotalUploads: 100},
		{Username: "ghost1", Exists: false},
		{Username: "ghost2", Exists: false},
	}
	return ds
}

func TestBuildFactsAggregates(t *testing.T) {
	ds := synthDataset(t)
	f, err := BuildFacts(ds, buildDB(t))
	if err != nil {
		t.Fatal(err)
	}
	big := f.Users["bigpub"]
	if big == nil || len(big.TorrentIDs) != 10 {
		t.Fatalf("bigpub facts = %+v", big)
	}
	if len(big.IPs) != 2 {
		t.Fatalf("bigpub IPs = %v", big.IPs)
	}
	if big.Downloads != 400 {
		t.Fatalf("bigpub downloads = %d", big.Downloads)
	}
	for _, rec := range big.ISPs {
		if rec.ISP != "HostCo" {
			t.Fatalf("bigpub ISP = %v", rec)
		}
	}
	if f.TotalTorrents != 51 {
		t.Fatalf("total torrents = %d", f.TotalTorrents)
	}
}

func TestFakeDetection(t *testing.T) {
	ds := synthDataset(t)
	f, err := BuildFacts(ds, buildDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Users["ghost1"].Fake() || !f.Users["ghost2"].Fake() {
		t.Fatal("deleted accounts not classified fake")
	}
	if f.Users["bigpub"].Fake() || f.Users["homepub"].Fake() {
		t.Fatal("genuine publisher classified fake")
	}
	// Shared IP is visible in the ByIP index.
	if got := len(f.ByIP["11.0.0.66"]); got != 2 {
		t.Fatalf("shared IP maps to %d usernames, want 2", got)
	}
}

func TestBuildGroups(t *testing.T) {
	ds := synthDataset(t)
	f, _ := BuildFacts(ds, buildDB(t))
	g := f.BuildGroups(4, 10)
	if len(g.Top) != 4 {
		t.Fatalf("top size = %d", len(g.Top))
	}
	// ghosts are fake and must not be in Top despite publishing 3 each.
	for _, u := range g.Top {
		if u.Fake() {
			t.Fatalf("fake %q in Top", u.Username)
		}
	}
	if g.Top[0].Username != "bigpub" {
		t.Fatalf("top[0] = %q", g.Top[0].Username)
	}
	if len(g.Fake) != 2 {
		t.Fatalf("fake group = %d", len(g.Fake))
	}
	// bigpub is hosted; homepub commercial.
	inHP, inCI := false, false
	for _, u := range g.TopHP {
		if u.Username == "bigpub" {
			inHP = true
		}
	}
	for _, u := range g.TopCI {
		if u.Username == "homepub" || u.Username == "roamer" {
			inCI = true
		}
	}
	if !inHP || !inCI {
		t.Fatalf("HP/CI split wrong: HP=%v CI=%v", names(g.TopHP), names(g.TopCI))
	}
	if len(g.All) == 0 {
		t.Fatal("empty All sample")
	}
}

func names(us []*UserFacts) []string {
	out := make([]string, len(us))
	for i, u := range us {
		out[i] = u.Username
	}
	return out
}

func TestCrossAnalysis(t *testing.T) {
	ds := synthDataset(t)
	f, _ := BuildFacts(ds, buildDB(t))
	ca := f.Cross(10)
	if ca.TopUsernames == 0 || ca.TopIPs == 0 {
		t.Fatalf("cross = %+v", ca)
	}
	if ca.MultiUserIPShare <= 0 {
		t.Fatal("shared fake IP not detected in top IPs")
	}
	if ca.HostingPoolShare <= 0 {
		t.Fatal("bigpub's hosting pool not classified")
	}
	if ca.DynamicShare <= 0 {
		t.Fatal("homepub's dynamic single-ISP case not classified")
	}
	if ca.MultiISPShare <= 0 {
		t.Fatal("roamer's multi-ISP case not classified")
	}
	if ca.SingleIPShare <= 0 {
		t.Fatal("single-IP case not classified")
	}
	if ca.DynamicAvgIPs < 2 {
		t.Fatalf("dynamic avg IPs = %v", ca.DynamicAvgIPs)
	}
}

func TestExtractPromo(t *testing.T) {
	cases := []struct {
		rec     dataset.TorrentRecord
		wantURL string
		wantCh  population.PromoChannel
	}{
		{dataset.TorrentRecord{Description: "come to www.divxatope.com now"},
			"www.divxatope.com", population.PromoTextbox},
		{dataset.TorrentRecord{FileName: "movie-www.ultra.net.avi"},
			"www.ultra.net", population.PromoFilename},
		{dataset.TorrentRecord{BundledFiles: []string{"Visit forum.megaboard.org.txt"}},
			"forum.megaboard.org", population.PromoBundledFile},
		{dataset.TorrentRecord{Description: "no urls at all"},
			"", population.PromoNone},
		// Textbox wins when several channels carry URLs.
		{dataset.TorrentRecord{
			Description: "см. www.first.com",
			FileName:    "x-www.second.com.avi",
		}, "www.first.com", population.PromoTextbox},
	}
	for i, tc := range cases {
		url, ch := ExtractPromo(&tc.rec)
		if url != tc.wantURL || ch != tc.wantCh {
			t.Errorf("case %d: got (%q, %v), want (%q, %v)", i, url, ch, tc.wantURL, tc.wantCh)
		}
	}
}

// stubInspector classifies URLs by name.
type stubInspector struct{}

func (stubInspector) Inspect(url string) (population.BusinessType, string, error) {
	switch url {
	case "www.bigpub.com":
		return population.BusinessPrivatePortal, "es", nil
	case "www.roampix.com":
		return population.BusinessImageHosting, "", nil
	case "www.singleboard.org":
		return population.BusinessForum, "", nil
	}
	return population.BusinessNone, "", fmt.Errorf("unknown %q", url)
}

func TestClassifyBusiness(t *testing.T) {
	ds := synthDataset(t)
	f, _ := BuildFacts(ds, buildDB(t))
	g := f.BuildGroups(4, 10)
	profiles, err := ClassifyBusiness(f, g, stubInspector{})
	if err != nil {
		t.Fatal(err)
	}
	byUser := map[string]BusinessProfile{}
	for _, p := range profiles {
		byUser[p.Username] = p
	}
	if p := byUser["bigpub"]; p.Class != BTPortal || p.URL != "www.bigpub.com" || p.Language != "es" {
		t.Fatalf("bigpub profile = %+v", p)
	}
	if p := byUser["roamer"]; p.Class != OtherWeb {
		t.Fatalf("roamer profile = %+v", p)
	}
	if p := byUser["single"]; p.Class != OtherWeb || p.URL != "www.singleboard.org" {
		t.Fatalf("single profile = %+v", p)
	}
	if p := byUser["homepub"]; p.Class != Altruist {
		t.Fatalf("homepub profile = %+v", p)
	}
	// Channel accounting: bigpub used the textbox.
	if byUser["bigpub"].Channels[population.PromoTextbox] != 10 {
		t.Fatalf("bigpub channels = %v", byUser["bigpub"].Channels)
	}
}

// TestDownloadsDistinctAcrossTorrents is the regression test for the
// double-counting bug: one IP downloading two torrents of the same user
// must count once in the user's Downloads, while the per-torrent counts
// (and their dataset-level sum) still see it twice.
func TestDownloadsDistinctAcrossTorrents(t *testing.T) {
	ds := &dataset.Dataset{Name: "dup", Start: t0, End: t0.AddDate(0, 1, 0)}
	for i := 0; i < 2; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i),
			Username: "dualpub", Published: t0.Add(time.Duration(i) * time.Hour),
		})
		ds.AddObservation(dataset.Observation{
			TorrentID: i, IP: "99.0.0.1", At: t0.Add(time.Duration(i)*time.Hour + time.Minute),
		})
	}
	ds.Users = []dataset.UserRecord{{Username: "dualpub", Exists: true}}
	f, err := BuildFacts(ds, buildDB(t))
	if err != nil {
		t.Fatal(err)
	}
	u := f.Users["dualpub"]
	if u.Downloads != 1 {
		t.Fatalf("Downloads = %d, want 1 (distinct across the user's torrents)", u.Downloads)
	}
	if f.DownloadsByTorrent[0] != 1 || f.DownloadsByTorrent[1] != 1 {
		t.Fatalf("per-torrent counts = %v", f.DownloadsByTorrent)
	}
	if f.TotalDownloads != 2 {
		t.Fatalf("TotalDownloads = %d, want 2 (per-torrent sum)", f.TotalDownloads)
	}
}

// TestAccountDeletedIPIdentified covers the mn08 fallback path: a
// publisher identified only by IP is keyed "ip:<addr>", and a deletion
// record under that resolved identity must land as AccountDeleted.
func TestAccountDeletedIPIdentified(t *testing.T) {
	ds := &dataset.Dataset{Name: "mn08", Start: t0, End: t0.AddDate(0, 1, 0)}
	for i := 0; i < 4; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i),
			PublisherIP: "11.0.0.5", Published: t0,
		})
	}
	ds.Users = []dataset.UserRecord{{Username: "ip:11.0.0.5", Exists: false}}
	f, err := BuildFacts(ds, buildDB(t))
	if err != nil {
		t.Fatal(err)
	}
	u := f.Users["ip:11.0.0.5"]
	if u == nil || !u.AccountDeleted || !u.Fake() {
		t.Fatalf("ip-identified publisher = %+v, want AccountDeleted/fake", u)
	}
}

func TestAliasClustersAndMerge(t *testing.T) {
	ds := synthDataset(t)
	// Alias trio: three accounts splitting one operator's uploads over a
	// shared two-IP pool, each promoting the same portal.
	id := len(ds.Torrents)
	for i := 0; i < 9; i++ {
		ip := "11.1.0.80"
		if i%2 == 1 {
			ip = "11.0.0.81"
		}
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: id, InfoHash: fmt.Sprintf("%040d", id),
			Username: fmt.Sprintf("cloak%d", i%3), PublisherIP: ip,
			Description: "visit www.cloaknet.com", Published: t0.Add(time.Duration(id) * time.Hour),
		})
		// The same two loyal downloaders fetch everything the operator
		// publishes: merged Downloads must stay 2, not 3×2.
		for d := 0; d < 2; d++ {
			ds.AddObservation(dataset.Observation{
				TorrentID: id, IP: fmt.Sprintf("98.0.0.%d", d),
				At: t0.Add(time.Duration(id)*time.Hour + time.Minute),
			})
		}
		id++
	}
	for i := 0; i < 3; i++ {
		ds.Users = append(ds.Users, dataset.UserRecord{Username: fmt.Sprintf("cloak%d", i), Exists: true})
	}
	f, err := BuildFacts(ds, buildDB(t))
	if err != nil {
		t.Fatal(err)
	}
	clusters := f.AliasClusters()
	var cloak, ghosts *AliasCluster
	for i := range clusters {
		switch clusters[i].Usernames[0] {
		case "cloak0":
			cloak = &clusters[i]
		case "ghost1":
			ghosts = &clusters[i]
		}
	}
	if cloak == nil || len(cloak.Usernames) != 3 || cloak.Fake {
		t.Fatalf("alias cluster = %+v", cloak)
	}
	if len(cloak.SharedIPs) != 2 || cloak.Torrents != 9 {
		t.Fatalf("alias cluster shape = %+v", cloak)
	}
	if ghosts == nil || !ghosts.Fake {
		t.Fatalf("ghost cohort = %+v, want fake (deleted accounts)", ghosts)
	}

	merged := f.MergeAliasClusters(f.AliasClusters())
	op := merged.Users["cloak0"]
	if op == nil || len(op.TorrentIDs) != 9 || len(op.IPs) != 2 {
		t.Fatalf("merged operator = %+v", op)
	}
	if op.Downloads != 2 {
		t.Fatalf("merged Downloads = %d, want 2 (distinct across the cluster)", op.Downloads)
	}
	if merged.Users["cloak1"] != nil || merged.Users["cloak2"] != nil {
		t.Fatal("cluster members not folded")
	}
	// The ghost cohort folds into one fake entity under the first name.
	if g := merged.Users["ghost1"]; g == nil || !g.Fake() || len(g.TorrentIDs) != 6 {
		t.Fatalf("merged ghost cohort = %+v", g)
	}
	// The merged operator now outranks the individually-small accounts and
	// classifies as a promoter over the combined uploads.
	groups := merged.BuildGroups(4, 10)
	profiles, err := ClassifyBusiness(merged, groups, stubInspector{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range profiles {
		if p.Username == "cloak0" {
			found = true
			if p.Class == Altruist || p.URL != "www.cloaknet.com" {
				t.Fatalf("operator profile = %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("merged operator missing from the top group")
	}
	// Unclustered facts are untouched views.
	if merged.Users["homepub"] != f.Users["homepub"] {
		t.Fatal("unclustered user unexpectedly copied")
	}
}

func TestBuildFactsMN08Style(t *testing.T) {
	// No usernames: publishers keyed by IP.
	ds := &dataset.Dataset{Name: "mn08", Start: t0, End: t0.AddDate(0, 1, 0)}
	for i := 0; i < 6; i++ {
		ds.AddTorrent(&dataset.TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040d", i),
			PublisherIP: "11.0.0.5", Published: t0,
		})
	}
	f, err := BuildFacts(ds, buildDB(t))
	if err != nil {
		t.Fatal(err)
	}
	u := f.Users["ip:11.0.0.5"]
	if u == nil || len(u.TorrentIDs) != 6 {
		t.Fatalf("IP-keyed user = %+v", u)
	}
}

// TestBuildFactsRejectsNonCanonical: facts index records by position,
// so a record off its position or an observation naming no record is
// refused by name instead of indexed wrong.
func TestBuildFactsRejectsNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*dataset.Dataset)
		want   string
	}{
		{"record off its position", func(ds *dataset.Dataset) { ds.Torrents[3].TorrentID = 40 },
			"record 3 carries torrent ID 40"},
		{"observation past the records", func(ds *dataset.Dataset) {
			ds.AddObservation(dataset.Observation{TorrentID: len(ds.Torrents) + 2, IP: "99.9.9.9", At: t0})
		}, "observation names torrent ID 53"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := synthDataset(t)
			tc.mutate(ds)
			_, err := BuildFacts(ds, buildDB(t))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("BuildFacts error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestBuildFactsNilDataset(t *testing.T) {
	if _, err := BuildFacts(nil, nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestClassifyBusinessValidation(t *testing.T) {
	ds := synthDataset(t)
	f, _ := BuildFacts(ds, buildDB(t))
	g := f.BuildGroups(4, 10)
	if _, err := ClassifyBusiness(f, g, nil); err == nil {
		t.Fatal("nil inspector accepted")
	}
}
