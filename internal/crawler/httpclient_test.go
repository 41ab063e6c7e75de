package crawler

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"btpub/internal/metainfo"
	"btpub/internal/portal"
	"btpub/internal/simclock"
)

// servedPortal is a portal behind portal.Handler on a test server that
// counts how often the feed answered 304.
func servedPortal(t *testing.T) (*portal.Portal, *httptest.Server, *atomic.Int64) {
	t.Helper()
	p, err := portal.New("SimBay", simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	var notModified atomic.Int64
	h := &portal.Handler{P: p}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(statusCounter{w, &notModified}, r)
	}))
	t.Cleanup(srv.Close)
	return p, srv, &notModified
}

// statusCounter counts the 304 answers written through it.
type statusCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (s statusCounter) WriteHeader(code int) {
	if code == http.StatusNotModified {
		s.n.Add(1)
	}
	s.ResponseWriter.WriteHeader(code)
}

func publish(t *testing.T, p *portal.Portal, seed uint64, username string) {
	t.Helper()
	tor, err := (&metainfo.Builder{Name: "x.avi", Length: 1 << 20, Announce: "http://t/announce", Seed: seed}).Build()
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
	if _, err := p.Publish(&portal.Entry{
		Title: "Upload", Category: "Video", Username: username,
		InfoHash: ih, TorrentData: data, SizeBytes: 1 << 20, FileName: "x.avi",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPPortalFeedCache: an unchanged feed is answered 304 and the
// client reuses its parsed items; after a publish it parses again.
func TestHTTPPortalFeedCache(t *testing.T) {
	p, srv, notModified := servedPortal(t)
	publish(t, p, 1, "alice")
	c := &HTTPPortal{BaseURL: srv.URL}
	ctx := context.Background()
	first, err := c.FetchRSS(ctx)
	if err != nil || len(first) != 1 {
		t.Fatalf("first poll: %d items, err %v", len(first), err)
	}
	again, err := c.FetchRSS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if notModified.Load() != 1 || !reflect.DeepEqual(again, first) {
		t.Fatalf("second poll: %d 304s, items %+v, want one 304 and the cached items", notModified.Load(), again)
	}
	publish(t, p, 2, "bob")
	fresh, err := c.FetchRSS(ctx)
	if err != nil || len(fresh) != 2 || notModified.Load() != 1 {
		t.Fatalf("poll after publish: %d items, %d 304s, err %v", len(fresh), notModified.Load(), err)
	}
}

// TestHTTPPortalEscapesUsername: any non-empty username is legal on the
// portal, so the client must escape it into one path segment. A hostile
// name scrapes exactly what InProcessPortal reads, and "foo?x" must not
// resolve to foo's page.
func TestHTTPPortalEscapesUsername(t *testing.T) {
	p, srv, _ := servedPortal(t)
	hostile := "a?b#c%d/e f"
	publish(t, p, 1, hostile)
	publish(t, p, 2, "foo")
	c := &HTTPPortal{BaseURL: srv.URL}
	ctx := context.Background()
	got, err := c.FetchUserPage(ctx, hostile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&InProcessPortal{P: p}).FetchUserPage(ctx, hostile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("over HTTP %+v, in process %+v", got, want)
	}
	if up, err := c.FetchUserPage(ctx, "foo?x"); !errors.Is(err, portal.ErrNotFound) {
		t.Fatalf(`FetchUserPage("foo?x") = %+v, %v; want portal.ErrNotFound`, up, err)
	}
}
