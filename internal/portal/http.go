package portal

import (
	"errors"
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"
	"time"

	"btpub/internal/metainfo"
)

// DefaultRSSWindow is how many items the feed shows, like the real portals'
// "recent torrents" window.
const DefaultRSSWindow = 60

// Handler serves the portal over HTTP:
//
//	GET /rss                      RSS 2.0 feed of recent uploads
//	GET /torrent/<hash>.torrent   the .torrent file
//	GET /page/<hash>              torrent detail page (HTML)
//	GET /user/<username>          account page (HTML)
//
// Feed links are rooted at the request's Host. The feed's ETag is the
// portal's Revision, so a poller that sends it back as If-None-Match gets
// 304 Not Modified until the index changes.
type Handler struct {
	P *Portal
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/rss":
		h.serveRSS(w, r)
	case strings.HasPrefix(r.URL.Path, "/torrent/"):
		h.serveTorrent(w, r)
	case strings.HasPrefix(r.URL.Path, "/page/"):
		h.servePage(w, r)
	case strings.HasPrefix(r.URL.Path, "/user/"):
		h.serveUser(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) serveRSS(w http.ResponseWriter, r *http.Request) {
	// Read the revision before rendering: a mutation in between then
	// leaves the ETag older than the body, which costs the poller one
	// more full fetch, never a stale cache.
	etag := `"` + strconv.FormatUint(h.P.Revision(), 10) + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := h.P.RSS("http://"+r.Host, DefaultRSSWindow)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/rss+xml; charset=utf-8")
	_, _ = w.Write(body)
}

func hashFromPath(path, prefix, suffix string) (metainfo.Hash, error) {
	s := strings.TrimSuffix(strings.TrimPrefix(path, prefix), suffix)
	if len(s) != 40 {
		return metainfo.Hash{}, fmt.Errorf("portal: bad hash %q", s)
	}
	var ih metainfo.Hash
	for i := 0; i < 20; i++ {
		v, err := strconv.ParseUint(s[2*i:2*i+2], 16, 8)
		if err != nil {
			return metainfo.Hash{}, fmt.Errorf("portal: bad hash %q", s)
		}
		ih[i] = byte(v)
	}
	return ih, nil
}

func (h *Handler) serveTorrent(w http.ResponseWriter, r *http.Request) {
	ih, err := hashFromPath(r.URL.Path, "/torrent/", ".torrent")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e, err := h.P.Entry(ih)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-bittorrent")
	_, _ = w.Write(e.TorrentData)
}

func (h *Handler) servePage(w http.ResponseWriter, r *http.Request) {
	ih, err := hashFromPath(r.URL.Path, "/page/", "")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e, err := h.P.Entry(ih)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(RenderPage(e))
}

func (h *Handler) serveUser(w http.ResponseWriter, r *http.Request) {
	username := strings.TrimPrefix(r.URL.Path, "/user/")
	acc, err := h.P.Account(username)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(RenderUserPage(acc))
}

// ---------------------------------------------------------------------
// Page rendering and scraping. The crawler scrapes these pages the way the
// paper's crawler scraped the real portals, so the markers are stable and
// the parser lives next to the renderer.
// ---------------------------------------------------------------------

// RenderPage produces the torrent detail page HTML.
func RenderPage(e *Entry) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>")
	b.WriteString(html.EscapeString(e.Title))
	b.WriteString("</title></head><body>\n")
	fmt.Fprintf(&b, "<h1 class=\"detName\">%s</h1>\n", html.EscapeString(e.Title))
	fmt.Fprintf(&b, "<dl><dt>Category:</dt><dd class=\"category\">%s</dd>\n", html.EscapeString(categoryLabel(e)))
	fmt.Fprintf(&b, "<dt>Uploaded by:</dt><dd class=\"username\"><a href=\"/user/%s\">%s</a></dd>\n",
		html.EscapeString(e.Username), html.EscapeString(e.Username))
	fmt.Fprintf(&b, "<dt>Size:</dt><dd class=\"size\">%d</dd>\n", e.SizeBytes)
	fmt.Fprintf(&b, "<dt>Uploaded:</dt><dd class=\"uploaded\">%s</dd></dl>\n",
		e.Published.UTC().Format(time.RFC3339))
	b.WriteString("<div class=\"nfo\"><pre>")
	b.WriteString(html.EscapeString(e.Description))
	b.WriteString("</pre></div>\n")
	b.WriteString("<ul class=\"filelist\">\n")
	fmt.Fprintf(&b, "<li class=\"file\">%s</li>\n", html.EscapeString(e.FileName))
	for _, f := range e.BundledFiles {
		fmt.Fprintf(&b, "<li class=\"file\">%s</li>\n", html.EscapeString(f))
	}
	b.WriteString("</ul>\n</body></html>\n")
	return []byte(b.String())
}

// PageData is the scraped form of a torrent page.
type PageData struct {
	Title       string
	Category    string
	Username    string
	SizeBytes   int64
	Uploaded    time.Time
	Description string
	Files       []string
}

// ParsePage scrapes a page produced by RenderPage.
func ParsePage(body []byte) (*PageData, error) {
	s := string(body)
	out := &PageData{}
	var err error
	if out.Title, err = between(s, `<h1 class="detName">`, `</h1>`); err != nil {
		return nil, err
	}
	if out.Category, err = between(s, `<dd class="category">`, `</dd>`); err != nil {
		return nil, err
	}
	userBlock, err := between(s, `<dd class="username">`, `</dd>`)
	if err != nil {
		return nil, err
	}
	if out.Username, err = between(userBlock, `">`, `</a>`); err != nil {
		return nil, err
	}
	sizeStr, err := between(s, `<dd class="size">`, `</dd>`)
	if err != nil {
		return nil, err
	}
	if out.SizeBytes, err = strconv.ParseInt(sizeStr, 10, 64); err != nil {
		return nil, fmt.Errorf("portal: bad size %q", sizeStr)
	}
	upStr, err := between(s, `<dd class="uploaded">`, `</dd>`)
	if err != nil {
		return nil, err
	}
	if out.Uploaded, err = time.Parse(time.RFC3339, upStr); err != nil {
		return nil, fmt.Errorf("portal: bad upload date %q", upStr)
	}
	desc, err := between(s, `<div class="nfo"><pre>`, `</pre></div>`)
	if err != nil {
		return nil, err
	}
	out.Description = html.UnescapeString(desc)
	rest := s
	for {
		f, err := between(rest, `<li class="file">`, `</li>`)
		if err != nil {
			break
		}
		out.Files = append(out.Files, html.UnescapeString(f))
		idx := strings.Index(rest, `<li class="file">`)
		rest = rest[idx+len(`<li class="file">`)+len(f):]
	}
	out.Title = html.UnescapeString(out.Title)
	out.Category = html.UnescapeString(out.Category)
	out.Username = html.UnescapeString(out.Username)
	return out, nil
}

// RenderUserPage produces the account page HTML.
func RenderUserPage(a *Account) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>")
	b.WriteString(html.EscapeString(a.Username))
	b.WriteString("</title></head><body>\n")
	fmt.Fprintf(&b, "<h1 class=\"userName\">%s</h1>\n", html.EscapeString(a.Username))
	fmt.Fprintf(&b, "<dl><dt>Member since:</dt><dd class=\"memberSince\">%s</dd>\n",
		a.Created.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "<dt>First upload:</dt><dd class=\"firstUpload\">%s</dd>\n",
		a.FirstUpload.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "<dt>Torrents uploaded:</dt><dd class=\"uploadCount\">%d</dd></dl>\n",
		a.TotalUploads())
	b.WriteString("<table class=\"uploads\">\n")
	for _, e := range a.uploads {
		fmt.Fprintf(&b, "<tr><td class=\"uploadDate\">%s</td><td class=\"uploadTitle\">%s</td></tr>\n",
			e.Published.UTC().Format(time.RFC3339), html.EscapeString(e.Title))
	}
	b.WriteString("</table>\n</body></html>\n")
	return []byte(b.String())
}

// UserPageData is the scraped form of an account page.
type UserPageData struct {
	Username    string
	MemberSince time.Time
	FirstUpload time.Time
	UploadCount int
	// WindowUploads are the (date, title) rows listed on the page.
	WindowUploads []UserUpload
}

// UserUpload is one row of the account's upload table.
type UserUpload struct {
	Date  time.Time
	Title string
}

// ParseUserPage scrapes a page produced by RenderUserPage.
func ParseUserPage(body []byte) (*UserPageData, error) {
	s := string(body)
	out := &UserPageData{}
	name, err := between(s, `<h1 class="userName">`, `</h1>`)
	if err != nil {
		return nil, err
	}
	out.Username = html.UnescapeString(name)
	ms, err := between(s, `<dd class="memberSince">`, `</dd>`)
	if err != nil {
		return nil, err
	}
	if out.MemberSince, err = time.Parse(time.RFC3339, ms); err != nil {
		return nil, fmt.Errorf("portal: bad member-since %q", ms)
	}
	fu, err := between(s, `<dd class="firstUpload">`, `</dd>`)
	if err != nil {
		return nil, err
	}
	if out.FirstUpload, err = time.Parse(time.RFC3339, fu); err != nil {
		return nil, fmt.Errorf("portal: bad first-upload %q", fu)
	}
	cnt, err := between(s, `<dd class="uploadCount">`, `</dd>`)
	if err != nil {
		return nil, err
	}
	if out.UploadCount, err = strconv.Atoi(cnt); err != nil {
		return nil, fmt.Errorf("portal: bad upload count %q", cnt)
	}
	rest := s
	for {
		row, err := between(rest, `<tr><td class="uploadDate">`, `</tr>`)
		if err != nil {
			break
		}
		dateStr, err := between(row+"</td>", ``, `</td>`)
		if err != nil {
			return nil, err
		}
		title, err := between(row, `<td class="uploadTitle">`, `</td>`)
		if err != nil {
			return nil, err
		}
		date, err := time.Parse(time.RFC3339, dateStr)
		if err != nil {
			return nil, fmt.Errorf("portal: bad upload date %q", dateStr)
		}
		out.WindowUploads = append(out.WindowUploads, UserUpload{
			Date: date, Title: html.UnescapeString(title),
		})
		idx := strings.Index(rest, `<tr><td class="uploadDate">`)
		rest = rest[idx+len(`<tr><td class="uploadDate">`)+len(row):]
	}
	return out, nil
}

// between extracts the text between the first occurrence of open and the
// next occurrence of close after it.
func between(s, open, close string) (string, error) {
	i := strings.Index(s, open)
	if i < 0 {
		return "", errors.New("portal: marker " + open + " not found")
	}
	s = s[i+len(open):]
	j := strings.Index(s, close)
	if j < 0 {
		return "", errors.New("portal: closing marker " + close + " not found")
	}
	return s[:j], nil
}
