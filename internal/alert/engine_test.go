package alert_test

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"btpub/internal/alert"
	"btpub/internal/analysis"
	"btpub/internal/dataset"
	"btpub/internal/delta"
	"btpub/internal/geoip"
)

func testDB(t *testing.T) *geoip.DB {
	t.Helper()
	db, err := geoip.NewBuilder(netip.MustParseAddr("11.0.0.0")).
		AddISP("TestHost", geoip.Hosting, 4, []geoip.Location{{Country: "FR", City: "Paris"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testSnapshot(t *testing.T, db *geoip.DB, version uint64, recs []*dataset.TorrentRecord, users []dataset.UserRecord) *delta.Snapshot {
	t.Helper()
	// Canonicalize: the tests drop records and number them sparsely.
	ds := dataset.Merge("t", &dataset.Dataset{Name: "t", Torrents: recs, Users: users})
	an, err := analysis.New(ds, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &delta.Snapshot{An: an, Version: version, Mode: delta.ModeFull, ChangedAll: true}
}

func rec(id int, user, ip string, published time.Time, removed bool) *dataset.TorrentRecord {
	return &dataset.TorrentRecord{
		TorrentID: id, InfoHash: fmt.Sprintf("%040x", id), Title: fmt.Sprintf("t%d", id),
		Category: "Movies", Username: user, PublisherIP: ip, Published: published, Removed: removed,
	}
}

func TestEngineRulesAndLifecycle(t *testing.T) {
	db := testDB(t)
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)

	var recs []*dataset.TorrentRecord
	id := 0
	add := func(user, ip string, at time.Time, removed bool) {
		recs = append(recs, rec(id, user, ip, at, removed))
		id++
	}
	// bursty: 10 uploads 2h apart — upload-burst fires (10 in 48h).
	for i := 0; i < 10; i++ {
		add("bursty", "11.0.0.1", t0.Add(time.Duration(i)*2*time.Hour), false)
	}
	// slow: 3 uploads weeks apart — nothing fires.
	for i := 0; i < 3; i++ {
		add("slow", "11.0.1.1", t0.AddDate(0, 0, 21*i), false)
	}
	// a1/a2/a3 share one publisher IP — alias-cluster fires for each.
	for i, u := range []string{"a1", "a2", "a3"} {
		add(u, "11.0.2.2", t0.AddDate(0, 0, 7+i), false)
	}
	// churner: 6 uploads from 6 addresses — ip-churn fires.
	for i := 0; i < 6; i++ {
		add("churner", fmt.Sprintf("11.0.3.%d", i+1), t0.AddDate(0, 0, 3*i), false)
	}
	// deleted: account the portal removed — fake-signal critical.
	add("deleted", "11.0.0.9", t0.AddDate(0, 0, 2), false)
	users := []dataset.UserRecord{{Username: "deleted", Exists: false}}

	e := alert.NewEngine()
	changed := e.Evaluate(testSnapshot(t, db, 5, recs, users))

	want := map[string]alert.Severity{
		"upload-burst/bursty":   alert.SeverityWarning,
		"alias-cluster/a1":      alert.SeverityWarning,
		"alias-cluster/a2":      alert.SeverityWarning,
		"alias-cluster/a3":      alert.SeverityWarning,
		"ip-churn/churner":      alert.SeverityWarning,
		"fake-signal/deleted":   alert.SeverityCritical,
		"alias-cluster/bursty":  "", // bursty publishes alone from its IP
		"upload-burst/slow":     "",
		"upload-burst/churner":  "", // one upload per 3 days
		"alias-cluster/churner": "",
	}
	got := map[string]alert.Alert{}
	for _, a := range changed {
		got[a.ID] = a
		if a.State != alert.StateFiring || a.FiredVersion != 5 || a.UpdatedVersion != 5 {
			t.Fatalf("new alert %s has wrong lifecycle: %+v", a.ID, a)
		}
	}
	for id, sev := range want {
		a, ok := got[id]
		if sev == "" {
			if ok {
				t.Fatalf("%s fired but should not have: %+v", id, a)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s did not fire; fired: %v", id, ids(changed))
		}
		if a.Severity != sev {
			t.Fatalf("%s severity = %s, want %s (score %.2f)", id, a.Severity, sev, a.Score)
		}
	}

	// Re-evaluating identical data changes nothing — the cursor is quiet.
	if again := e.Evaluate(testSnapshot(t, db, 6, recs, users)); len(again) != 0 {
		t.Fatalf("unchanged data produced %v", ids(again))
	}
	if feed := e.Since(5); len(feed.Alerts) != 0 {
		t.Fatalf("cursor past v5 replayed %d alerts", len(feed.Alerts))
	}
	if feed := e.Since(0); len(feed.Alerts) != len(got) {
		t.Fatalf("full feed has %d alerts, want %d", len(feed.Alerts), len(got))
	}

	// Drop bursty's later uploads: burst decays below threshold and the
	// alert resolves at this version.
	var calm []*dataset.TorrentRecord
	for _, r := range recs {
		if r.Username != "bursty" || r.Published.Before(t0.Add(6*time.Hour)) {
			calm = append(calm, r)
		}
	}
	changed = e.Evaluate(testSnapshot(t, db, 7, calm, users))
	var resolved *alert.Alert
	for i := range changed {
		if changed[i].ID == "upload-burst/bursty" {
			resolved = &changed[i]
		}
	}
	if resolved == nil || resolved.State != alert.StateResolved || resolved.ResolvedVersion != 7 {
		t.Fatalf("burst alert did not resolve at v7: %+v", changed)
	}

	// Wait returns immediately when the cursor has data behind it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if feed := e.Wait(ctx, 6); len(feed.Alerts) == 0 || feed.Version != 7 {
		t.Fatalf("Wait(6) = %+v, want the v7 resolution", feed)
	}
}

func ids(alerts []alert.Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = a.ID
	}
	return out
}

// TestEngineDeltaScopedEvaluation: with a Changed list, only listed
// subjects are re-scored — untouched alerts keep their versions.
func TestEngineDeltaScopedEvaluation(t *testing.T) {
	db := testDB(t)
	t0 := time.Date(2010, 4, 6, 0, 0, 0, 0, time.UTC)
	var recs []*dataset.TorrentRecord
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(i, "bursty", "11.0.0.1", t0.Add(time.Duration(i)*time.Hour), false))
	}
	for i := 0; i < 6; i++ {
		recs = append(recs, rec(100+i, "churner", fmt.Sprintf("11.0.3.%d", i+1), t0.AddDate(0, 0, 3*i), false))
	}

	e := alert.NewEngine()
	if n := len(e.Evaluate(testSnapshot(t, db, 1, recs, nil))); n != 2 {
		t.Fatalf("expected burst + churn to fire, got %d", n)
	}

	// A delta refresh touching only churner must not reconsider bursty,
	// even though bursty's data (hypothetically) changed under it.
	snap := testSnapshot(t, db, 2, recs[10:], nil) // bursty absent from facts
	snap.Mode = delta.ModeDelta
	snap.ChangedAll = false
	snap.Changed = []string{"churner"}
	if changed := e.Evaluate(snap); len(changed) != 0 {
		t.Fatalf("delta-scoped evaluation changed %v", ids(changed))
	}
	feed := e.Since(0)
	for _, a := range feed.Alerts {
		if a.Subject == "bursty" && a.State != alert.StateFiring {
			t.Fatalf("untouched subject was re-judged: %+v", a)
		}
	}
}
