package campaign

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"btpub/internal/classify"
	"btpub/internal/lake"
	"btpub/internal/lakeserve"
	"btpub/internal/population"
	"btpub/internal/webmon"
)

// advSpec is the adversarial grid point shared by the recovery test and
// the sharded determinism gate (which re-runs it with Shards: 4).
var advSpec = Spec{Scale: 0.01, MeanDownloads: 120, Style: PB10, Seed: 42,
	Scenarios: population.AllScenarios}

var advCached *Result

func advRun(t *testing.T) *Result {
	t.Helper()
	if advCached == nil {
		res, err := Run(advSpec)
		if err != nil {
			t.Fatal(err)
		}
		advCached = res
	}
	return advCached
}

// groundTruth digests the world into the planted labels the classifier
// must recover.
type groundTruth struct {
	classOf map[string]population.Class
	// firstRemoval is the earliest portal takedown per username; an
	// account with one inside the window is measurable as fake (the
	// takedown suspends it, so the user-page sweep sees the deletion).
	firstRemoval map[string]time.Time
	aliasOps     []*population.Publisher
	churned      []*population.Publisher
	sticky       []*population.Publisher
}

func digestWorld(res *Result) groundTruth {
	gt := groundTruth{classOf: map[string]population.Class{}, firstRemoval: map[string]time.Time{}}
	for _, tor := range res.World.Torrents {
		gt.classOf[tor.Username] = res.World.Publishers[tor.PublisherID].Class
		if tor.RemovalAfter > 0 {
			at := tor.Published.Add(tor.RemovalAfter)
			if cur, ok := gt.firstRemoval[tor.Username]; !ok || at.Before(cur) {
				gt.firstRemoval[tor.Username] = at
			}
		}
	}
	for _, pub := range res.World.Publishers {
		switch {
		case pub.AliasOperator():
			gt.aliasOps = append(gt.aliasOps, pub)
		case pub.StickyAccount:
			gt.sticky = append(gt.sticky, pub)
		case pub.Class.IsTop() && pub.IPPolicy == population.IPDynamic && len(pub.IPs) >= 14:
			gt.churned = append(gt.churned, pub)
		}
	}
	return gt
}

// measurableFake reports whether the planted fake username could be
// flagged from crawl data alone: the portal acted on it inside the
// measurement window.
func (gt *groundTruth) measurableFake(name string, end time.Time) bool {
	if !gt.classOf[name].IsFake() {
		return false
	}
	at, ok := gt.firstRemoval[name]
	return ok && at.Before(end)
}

// fakeFlags reproduces the serving layer's fake decision: a username's own
// signals, or membership in an alias cluster flagged as one fake cohort.
func fakeFlags(facts *classify.Facts) map[string]bool {
	out := map[string]bool{}
	for name, u := range facts.Users {
		if u.Fake() {
			out[name] = true
		}
	}
	for _, c := range facts.AliasClusters() {
		if !c.Fake {
			continue
		}
		for _, name := range c.Usernames {
			out[name] = true
		}
	}
	return out
}

// TestAdversarialScenarioRecovery is the end-to-end gate for the scenario
// engine: a campaign with every adversarial profile on, classified from
// the crawl alone, must recover the planted ground truth — zero false
// negatives on measurable fakes, no altruist drifting into the
// profit-driven classes, alias clusters reassembled, churned IPs linked.
func TestAdversarialScenarioRecovery(t *testing.T) {
	res := advRun(t)
	gt := digestWorld(res)
	if len(gt.aliasOps) == 0 || len(gt.churned) == 0 || len(gt.sticky) < 2 {
		t.Fatalf("world missing plants: alias=%d churned=%d sticky=%d",
			len(gt.aliasOps), len(gt.churned), len(gt.sticky))
	}

	facts, err := classify.BuildFacts(res.Dataset, res.DB)
	if err != nil {
		t.Fatal(err)
	}
	flagged := fakeFlags(facts)

	// Zero false negatives on planted fakes the portal acted on.
	missed, measurable := 0, 0
	for name := range facts.Users {
		if !gt.measurableFake(name, res.Dataset.End) {
			continue
		}
		measurable++
		if !flagged[name] {
			missed++
			t.Errorf("planted fake %q (class %v) not flagged", name, gt.classOf[name])
		}
	}
	if measurable == 0 {
		t.Fatal("no measurable planted fakes")
	}
	if missed > 0 {
		t.Fatalf("%d/%d planted fakes missed", missed, measurable)
	}
	// The sticky top-scale fakes are the hard case: they must be both
	// measurable and flagged.
	for _, pub := range gt.sticky {
		name := pub.Usernames[0]
		if facts.Users[name] == nil {
			t.Fatalf("sticky fake %q never crawled", name)
		}
		if !flagged[name] {
			t.Fatalf("sticky fake %q survived classification", name)
		}
	}

	// No genuine publisher flagged fake, and in particular no altruist.
	for name, u := range facts.Users {
		class, ok := gt.classOf[name]
		if !ok || class.IsFake() {
			continue
		}
		_ = u
		if flagged[name] {
			t.Errorf("genuine %q (class %v) flagged fake", name, class)
		}
	}

	// Alias clusters reassemble: every operator account that had an
	// upload identified joins the operator's cluster, and clusters stay
	// pure (no foreign usernames).
	clusterOf := map[string]int{}
	clusters := facts.AliasClusters()
	for ci, c := range clusters {
		for _, name := range c.Usernames {
			clusterOf[name] = ci
		}
	}
	full := 0
	for _, op := range gt.aliasOps {
		var identified []string
		for _, name := range op.Usernames {
			if u := facts.Users[name]; u != nil && len(u.IPs) > 0 {
				identified = append(identified, name)
			}
		}
		if len(identified) < 2 {
			continue
		}
		ci, ok := clusterOf[identified[0]]
		if !ok {
			t.Errorf("operator %d: identified accounts %v not clustered", op.ID, identified)
			continue
		}
		for _, name := range identified[1:] {
			if cj, ok := clusterOf[name]; !ok || cj != ci {
				t.Errorf("operator %d: account %q in cluster %v, want %d", op.ID, name, cj, ci)
			}
		}
		opNames := map[string]bool{}
		for _, n := range op.Usernames {
			opNames[n] = true
		}
		pure := true
		for _, n := range clusters[ci].Usernames {
			if !opNames[n] {
				pure = false
				t.Errorf("operator %d: cluster contains foreign username %q", op.ID, n)
			}
		}
		if pure && len(identified) == len(op.Usernames) {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no alias operator fully recovered")
	}

	// Churned publishers: the crawl links many identified addresses to
	// one username.
	linked := 0
	for _, pub := range gt.churned {
		if u := facts.Users[pub.Usernames[0]]; u != nil && len(u.IPs) >= 3 {
			linked++
		}
	}
	if linked == 0 {
		t.Fatal("no churned publisher's IPs linked")
	}

	// Business classification over the merged view: altruists stay
	// altruists, and at least one merged alias operator classifies as a
	// portal promoter.
	merged := facts.MergeAliasClusters(facts.AliasClusters())
	groups := merged.BuildGroups(0, 0)
	mon, err := webmon.NewDirectory(res.World, 1)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := classify.ClassifyBusiness(merged, groups, mon)
	if err != nil {
		t.Fatal(err)
	}
	opPortal := false
	for _, p := range profiles {
		if gt.classOf[p.Username] == population.TopAltruistic && p.Class != classify.Altruist {
			t.Errorf("altruist %q classified %v (url %q)", p.Username, p.Class, p.URL)
		}
		if gt.classOf[p.Username] == population.TopPortal && len(clusterOf) > 0 {
			if _, ok := clusterOf[p.Username]; ok && p.Class == classify.BTPortal {
				opPortal = true
			}
		}
	}
	if !opPortal {
		t.Error("no merged alias operator classified as a BT portal promoter")
	}
}

// TestAdversarialServedFromLake closes the loop over the serving layer:
// the same campaign imported into a lake and queried over HTTP must
// return the same labels from /fakes and /publishers/classified.
func TestAdversarialServedFromLake(t *testing.T) {
	res := advRun(t)
	gt := digestWorld(res)
	lk, err := lake.Open(filepath.Join(t.TempDir(), "adv.lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if err := lk.ImportDataset(res.Dataset); err != nil {
		t.Fatal(err)
	}
	mon, err := webmon.NewDirectory(res.World, 1)
	if err != nil {
		t.Fatal(err)
	}
	server := &lakeserve.Server{Lake: lk, Geo: res.DB}
	server.SetInspector(mon)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(srv.URL + lakeserve.APIPrefix + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d (%v): %s", path, resp.StatusCode, err, body)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s: %v in %s", path, err, body)
		}
	}

	var fakes []lakeserve.FakePublisher
	// n<=0 is a 400 under the bounds-checked /api/v1 params; ask for the
	// maximum instead to see every fake.
	get("/fakes?n=100000", &fakes)
	served := map[string]bool{}
	cohorts := 0
	for _, row := range fakes {
		served[row.Username] = true
		// Every member of a flagged cohort answers for the whole cohort on
		// its own page, whichever of them moderation caught.
		if len(row.Cohort) > 0 {
			cohorts++
			var page lakeserve.PublisherDetail
			get("/publishers/"+row.Username, &page)
			if !reflect.DeepEqual(page.FakePublisher, row) || !reflect.DeepEqual(page.Aliases, row.Cohort) {
				t.Errorf("/publishers/%s = %+v, /fakes row %+v", row.Username, page, row)
			}
		}
	}
	if cohorts == 0 {
		t.Error("no fake cohort served: the per-publisher cohort check ran on nothing")
	}
	for name := range gt.classOf {
		if gt.measurableFake(name, res.Dataset.End) && !served[name] {
			t.Errorf("planted fake %q missing from /fakes", name)
		}
	}

	var rows []lakeserve.ClassifiedPublisher
	get("/publishers/classified?n=100000", &rows)
	if len(rows) == 0 {
		t.Fatal("empty /publishers/classified")
	}
	opPortal := false
	for _, row := range rows {
		if served[row.Username] {
			t.Errorf("fake %q in /publishers/classified", row.Username)
		}
		switch gt.classOf[row.Username] {
		case population.TopAltruistic:
			if row.Class != classify.Altruist.String() {
				t.Errorf("altruist %q served as %q", row.Username, row.Class)
			}
		case population.TopPortal:
			if len(row.Aliases) > 1 && row.Class == classify.BTPortal.String() {
				opPortal = true
				// An alias's page carries its operator's class and cluster.
				var page lakeserve.PublisherDetail
				get("/publishers/"+row.Aliases[len(row.Aliases)-1], &page)
				if page.Class != row.Class || page.URL != row.URL || !reflect.DeepEqual(page.Aliases, row.Aliases) {
					t.Errorf("/publishers/%s = %+v, operator row %+v", page.Username, page, row)
				}
			}
		}
	}
	if !opPortal {
		t.Error("no merged alias operator served as a BT portal promoter")
	}
}
