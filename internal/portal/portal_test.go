package portal

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/simclock"
)

func newTestPortal(t *testing.T) (*Portal, *simclock.Sim) {
	t.Helper()
	clock := simclock.NewSim(simclock.Epoch)
	p, err := New("SimBay", clock)
	if err != nil {
		t.Fatal(err)
	}
	return p, clock
}

func makeEntry(t *testing.T, seed byte, username string) *Entry {
	t.Helper()
	b := metainfo.Builder{
		Name:     fmt.Sprintf("Content.%d.avi", seed),
		Length:   700 << 20,
		Announce: "http://tracker.test/announce",
		Seed:     uint64(seed),
	}
	tor, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := tor.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ih, err := tor.InfoHash()
	if err != nil {
		t.Fatal(err)
	}
	return &Entry{
		Title:       fmt.Sprintf("Content %d", seed),
		Category:    "Video",
		SubCategory: "Movies",
		Username:    username,
		InfoHash:    ih,
		TorrentData: data,
		SizeBytes:   700 << 20,
		Description: "A test description with http://www.example-promo.com inside",
		FileName:    fmt.Sprintf("Content.%d.avi", seed),
	}
}

func TestPublishAndFetch(t *testing.T) {
	p, _ := newTestPortal(t)
	e := makeEntry(t, 1, "uploader1")
	id, err := p.Publish(e)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first id = %d", id)
	}
	got, err := p.Entry(e.InfoHash)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != e.Title || got.Username != "uploader1" {
		t.Fatalf("fetched = %+v", got)
	}
	if got.Published.IsZero() {
		t.Fatal("publish time not stamped")
	}
}

func TestPublishDuplicateRejected(t *testing.T) {
	p, _ := newTestPortal(t)
	e := makeEntry(t, 1, "u")
	if _, err := p.Publish(e); err != nil {
		t.Fatal(err)
	}
	e2 := makeEntry(t, 1, "u")
	if _, err := p.Publish(e2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestPublishValidation(t *testing.T) {
	p, _ := newTestPortal(t)
	if _, err := p.Publish(nil); err == nil {
		t.Fatal("nil entry accepted")
	}
	if _, err := p.Publish(&Entry{Username: ""}); err == nil {
		t.Fatal("empty username accepted")
	}
	if _, err := p.Publish(&Entry{Username: "u"}); err == nil {
		t.Fatal("entry without torrent data accepted")
	}
}

func TestRemoveHidesEntryAndSuspendsAccount(t *testing.T) {
	p, clock := newTestPortal(t)
	e := makeEntry(t, 1, "fakeuser")
	if _, err := p.Publish(e); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Hour)
	if err := p.Remove(e.InfoHash); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Entry(e.InfoHash); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed entry still visible: %v", err)
	}
	if _, err := p.Account("fakeuser"); !errors.Is(err, ErrNotFound) {
		t.Fatal("suspended account still visible")
	}
	if st := p.Stats(); st.Accounts != 1 || st.Suspended != 1 {
		t.Fatalf("stats = %+v, want the one account suspended", st)
	}
	// Publishing again under the suspended account fails.
	e2 := makeEntry(t, 2, "fakeuser")
	if _, err := p.Publish(e2); !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v, want ErrSuspended", err)
	}
	// Removing twice is idempotent.
	if err := p.Remove(e.InfoHash); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendAccountRemovesLiveUploads(t *testing.T) {
	p, clk := newTestPortal(t)
	for i := byte(0); i < 3; i++ {
		if _, err := p.Publish(makeEntry(t, 10+i, "operator")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Publish(makeEntry(t, 20, "bystander")); err != nil {
		t.Fatal(err)
	}
	rev := p.Revision()
	clk.AdvanceTo(clk.Now().Add(time.Hour))
	if err := p.SuspendAccount("operator"); err != nil {
		t.Fatal(err)
	}
	if err := p.SuspendAccount("nobody"); err != ErrNotFound {
		t.Fatalf("unknown account suspend = %v", err)
	}
	if _, err := p.Account("operator"); err != ErrNotFound {
		t.Fatalf("purged account page = %v", err)
	}
	st := p.Stats()
	if st.Removed != 3 || st.Suspended != 1 {
		t.Fatalf("stats after purge = %+v", st)
	}
	if p.Revision() == rev {
		t.Fatal("purge did not bump the revision")
	}
	// The bystander and its upload survive.
	if _, err := p.Account("bystander"); err != nil {
		t.Fatal(err)
	}
	// Publishing under the purged account now fails.
	if _, err := p.Publish(makeEntry(t, 30, "operator")); err != ErrSuspended {
		t.Fatalf("post-purge publish = %v", err)
	}
}

func TestRemoveUnknown(t *testing.T) {
	p, _ := newTestPortal(t)
	var ih metainfo.Hash
	if err := p.Remove(ih); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecentWindowNewestFirstSkipsRemoved(t *testing.T) {
	p, clock := newTestPortal(t)
	var hashes []metainfo.Hash
	for i := byte(1); i <= 5; i++ {
		e := makeEntry(t, i, "u")
		if _, err := p.Publish(e); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, e.InfoHash)
		clock.Advance(time.Minute)
	}
	if err := p.Remove(hashes[4]); err != nil { // newest removed
		t.Fatal(err)
	}
	recent := p.Recent(3)
	if len(recent) != 3 {
		t.Fatalf("recent = %d entries", len(recent))
	}
	if recent[0].InfoHash != hashes[3] || recent[1].InfoHash != hashes[2] {
		t.Fatal("recent not newest-first or removed not skipped")
	}
}

func TestEntriesSince(t *testing.T) {
	p, clock := newTestPortal(t)
	for i := byte(1); i <= 4; i++ {
		clock.Advance(time.Hour)
		if _, err := p.Publish(makeEntry(t, i, "u")); err != nil {
			t.Fatal(err)
		}
	}
	cut := simclock.Epoch.Add(2 * time.Hour) // after the 2nd publish
	got := p.EntriesSince(cut)
	if len(got) != 2 {
		t.Fatalf("EntriesSince = %d entries, want 2", len(got))
	}
	for _, e := range got {
		if !e.Published.After(cut) {
			t.Fatalf("entry at %v not after %v", e.Published, cut)
		}
	}
}

func TestAccountHistoryAndStats(t *testing.T) {
	p, clock := newTestPortal(t)
	created := simclock.Epoch.AddDate(-1, 0, 0)
	first := created.AddDate(0, 0, 3)
	if err := p.RegisterAccount("veteran", created, 150, first); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterAccount("veteran", created, 1, first); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	for i := byte(1); i <= 3; i++ {
		clock.Advance(time.Hour)
		if _, err := p.Publish(makeEntry(t, i, "veteran")); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := p.Account("veteran")
	if err != nil {
		t.Fatal(err)
	}
	if acc.TotalUploads() != 153 {
		t.Fatalf("total uploads = %d, want 153", acc.TotalUploads())
	}
	if !acc.FirstUpload.Equal(first) {
		t.Fatalf("first upload = %v, want %v", acc.FirstUpload, first)
	}
	st := p.Stats()
	if st.Torrents != 3 || st.Accounts != 1 || st.Removed != 0 || st.Suspended != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRSSRoundTrip(t *testing.T) {
	p, clock := newTestPortal(t)
	for i := byte(1); i <= 3; i++ {
		clock.Advance(time.Hour)
		if _, err := p.Publish(makeEntry(t, i, fmt.Sprintf("user%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	feed, err := p.RSS("http://portal.test", 10)
	if err != nil {
		t.Fatal(err)
	}
	items, err := ParseRSS(feed)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	// Newest first.
	if items[0].Username != "user3" {
		t.Fatalf("first item username = %q, want user3", items[0].Username)
	}
	if !strings.HasPrefix(items[0].TorrentURL, "http://portal.test/torrent/") ||
		!strings.HasSuffix(items[0].TorrentURL, ".torrent") {
		t.Fatalf("torrent URL = %q", items[0].TorrentURL)
	}
	if items[0].Category != "Video > Movies" {
		t.Fatalf("category = %q", items[0].Category)
	}
	if items[0].Published.IsZero() || items[0].SizeBytes != 700<<20 {
		t.Fatalf("item = %+v", items[0])
	}
}

func TestParseRSSRejectsGarbage(t *testing.T) {
	if _, err := ParseRSS([]byte("not xml at all <<<")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPageRenderParseRoundTrip(t *testing.T) {
	e := makeEntry(t, 7, "scraper<&>victim")
	e.BundledFiles = []string{"Visit www.promo-site.com.txt"}
	e.Published = simclock.Epoch.Add(3 * time.Hour)
	body := RenderPage(e)
	got, err := ParsePage(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != e.Title || got.Username != e.Username {
		t.Fatalf("scraped = %+v", got)
	}
	if got.SizeBytes != e.SizeBytes {
		t.Fatalf("size = %d", got.SizeBytes)
	}
	if !strings.Contains(got.Description, "example-promo.com") {
		t.Fatalf("description lost promo URL: %q", got.Description)
	}
	if len(got.Files) != 2 || got.Files[1] != "Visit www.promo-site.com.txt" {
		t.Fatalf("files = %v", got.Files)
	}
	if !got.Uploaded.Equal(e.Published) {
		t.Fatalf("uploaded = %v, want %v", got.Uploaded, e.Published)
	}
}

func TestUserPageRenderParseRoundTrip(t *testing.T) {
	p, clock := newTestPortal(t)
	created := simclock.Epoch.AddDate(-2, 0, 0)
	if err := p.RegisterAccount("bigpub", created, 420, created.AddDate(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 2; i++ {
		clock.Advance(time.Hour)
		if _, err := p.Publish(makeEntry(t, i, "bigpub")); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := p.Account("bigpub")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseUserPage(RenderUserPage(acc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Username != "bigpub" || got.UploadCount != 422 {
		t.Fatalf("scraped = %+v", got)
	}
	if !got.MemberSince.Equal(created) {
		t.Fatalf("member since = %v", got.MemberSince)
	}
	if len(got.WindowUploads) != 2 {
		t.Fatalf("window uploads = %d", len(got.WindowUploads))
	}
	if got.WindowUploads[0].Title != "Content 1" {
		t.Fatalf("upload rows = %+v", got.WindowUploads)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	p, clock := newTestPortal(t)
	e := makeEntry(t, 9, "httpuser")
	if _, err := p.Publish(e); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	srv := httptest.NewServer(&Handler{P: p})
	defer srv.Close()

	fetch := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, feed := fetch("/rss")
	if code != http.StatusOK {
		t.Fatalf("/rss -> %d", code)
	}
	items, err := ParseRSS(feed)
	if err != nil || len(items) != 1 {
		t.Fatalf("feed items = %d err = %v", len(items), err)
	}

	// Follow the feed's own links, as the crawler does.
	turl := strings.TrimPrefix(items[0].TorrentURL, srv.URL)
	code, tdata := fetch(turl)
	if code != http.StatusOK {
		t.Fatalf("torrent fetch -> %d", code)
	}
	tor, err := metainfo.Parse(tdata)
	if err != nil {
		t.Fatalf("served .torrent unparsable: %v", err)
	}
	ih, err := tor.InfoHash()
	if err != nil || ih != e.InfoHash {
		t.Fatalf("info-hash mismatch")
	}

	purl := strings.TrimPrefix(items[0].PageURL, srv.URL)
	code, page := fetch(purl)
	if code != http.StatusOK {
		t.Fatalf("page fetch -> %d", code)
	}
	pd, err := ParsePage(page)
	if err != nil || pd.Username != "httpuser" {
		t.Fatalf("page parse: %+v err=%v", pd, err)
	}

	code, up := fetch("/user/httpuser")
	if code != http.StatusOK {
		t.Fatalf("user fetch -> %d", code)
	}
	if _, err := ParseUserPage(up); err != nil {
		t.Fatal(err)
	}

	if code, _ := fetch("/user/ghost"); code != http.StatusNotFound {
		t.Fatalf("ghost user -> %d", code)
	}
	if code, _ := fetch("/torrent/" + strings.Repeat("ff", 20) + ".torrent"); code != http.StatusNotFound {
		t.Fatalf("unknown torrent -> %d", code)
	}
	if code, _ := fetch("/torrent/zz.torrent"); code != http.StatusBadRequest {
		t.Fatalf("bad hash -> %d", code)
	}

	// After moderation the artifacts disappear over HTTP too.
	if err := p.Remove(e.InfoHash); err != nil {
		t.Fatal(err)
	}
	if code, _ := fetch(turl); code != http.StatusNotFound {
		t.Fatalf("removed torrent still served: %d", code)
	}
	if code, _ := fetch("/user/httpuser"); code != http.StatusNotFound {
		t.Fatalf("suspended user page still served: %d", code)
	}
}

func TestNewRequiresClock(t *testing.T) {
	if _, err := New("x", nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

// TestRSSConditionalGET: the feed's ETag is the portal revision, so a
// matching If-None-Match answers 304 until a publish, a takedown or an
// account suspension — every mutation the feed can show — moves it.
func TestRSSConditionalGET(t *testing.T) {
	p, _ := newTestPortal(t)
	first := makeEntry(t, 1, "alice")
	if _, err := p.Publish(first); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&Handler{P: p})
	defer srv.Close()

	get := func(etag string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/rss", nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag")
	}
	code, etag := get("")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("/rss -> %d, ETag %q", code, etag)
	}
	if code, _ := get(etag); code != http.StatusNotModified {
		t.Fatalf("unchanged feed with matching If-None-Match -> %d, want 304", code)
	}
	second := makeEntry(t, 2, "bob")
	for _, m := range []struct {
		name   string
		mutate func() error
	}{
		{"publish", func() error { _, err := p.Publish(second); return err }},
		{"remove", func() error { return p.Remove(second.InfoHash) }},
		{"suspend", func() error { return p.SuspendAccount("alice") }},
	} {
		if err := m.mutate(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		code, next := get(etag)
		if code != http.StatusOK || next == etag {
			t.Fatalf("after %s: %d with ETag %q (was %q), want 200 and a new ETag", m.name, code, next, etag)
		}
		etag = next
	}
}
