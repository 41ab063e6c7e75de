// Package portal simulates a major BitTorrent index portal (The Pirate Bay
// / Mininova class) as the paper's crawler experiences it: an RSS feed
// announcing new uploads, per-torrent pages with category, size, username
// and a free-text description box, downloadable .torrent files, per-user
// pages listing the account's whole publication history, and a moderation
// process that removes content identified as fake together with the account
// that published it (the paper exploits exactly that removal signal to flag
// fake publishers).
package portal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"btpub/internal/metainfo"
	"btpub/internal/simclock"
)

// Entry is one indexed torrent.
type Entry struct {
	ID           int
	Title        string
	Category     string
	SubCategory  string
	Username     string
	InfoHash     metainfo.Hash
	TorrentData  []byte
	Published    time.Time
	SizeBytes    int64
	Description  string   // the page textbox
	FileName     string   // payload file name inside the torrent
	BundledFiles []string // extra files listed on the page

	Removed   bool
	RemovedAt time.Time
}

// Account is a portal user account.
type Account struct {
	Username string
	Created  time.Time
	// PreCampaignCount is how many uploads the account made before the
	// simulation window (shown on the user page; drives Table 4).
	PreCampaignCount int
	// FirstUpload is the date of the account's first upload ever.
	FirstUpload time.Time

	Suspended   bool
	SuspendedAt time.Time

	uploads []*Entry // campaign-window uploads, in publish order
}

// TotalUploads is the account's all-time upload count (history + window).
func (a *Account) TotalUploads() int { return a.PreCampaignCount + len(a.uploads) }

// Portal is the in-memory index. All methods are safe for concurrent use.
type Portal struct {
	Name  string
	clock simclock.Clock

	mu       sync.RWMutex
	entries  []*Entry
	byHash   map[metainfo.Hash]*Entry
	accounts map[string]*Account
	rev      uint64
}

// Revision reports a counter that changes whenever the portal's index
// content changes (publish or takedown). Clients use it to cache derived
// views — the RSS feed in particular — between mutations.
func (p *Portal) Revision() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rev
}

// New creates an empty portal on the given clock.
func New(name string, clock simclock.Clock) (*Portal, error) {
	if clock == nil {
		return nil, errors.New("portal: nil clock")
	}
	return &Portal{
		Name:     name,
		clock:    clock,
		byHash:   map[metainfo.Hash]*Entry{},
		accounts: map[string]*Account{},
	}, nil
}

// RegisterAccount pre-creates an account with its pre-campaign history.
// Publishing under an unknown username auto-registers an empty account.
func (p *Portal) RegisterAccount(username string, created time.Time, preCount int, firstUpload time.Time) error {
	if username == "" {
		return errors.New("portal: empty username")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.accounts[username]; dup {
		return fmt.Errorf("portal: account %q already exists", username)
	}
	p.accounts[username] = &Account{
		Username:         username,
		Created:          created,
		PreCampaignCount: preCount,
		FirstUpload:      firstUpload,
	}
	return nil
}

// ErrSuspended is returned when publishing under a suspended account.
var ErrSuspended = errors.New("portal: account suspended")

// ErrDuplicate is returned when the info-hash is already indexed.
var ErrDuplicate = errors.New("portal: torrent already indexed")

// Publish indexes a new torrent under the entry's username at the current
// clock time and returns the assigned entry ID.
func (p *Portal) Publish(e *Entry) (int, error) {
	if e == nil || e.Username == "" {
		return 0, errors.New("portal: bad entry")
	}
	if len(e.TorrentData) == 0 {
		return 0, errors.New("portal: entry has no .torrent payload")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.byHash[e.InfoHash]; dup {
		return 0, ErrDuplicate
	}
	acc := p.accounts[e.Username]
	if acc == nil {
		acc = &Account{Username: e.Username, Created: p.clock.Now()}
		p.accounts[e.Username] = acc
	}
	if acc.Suspended {
		return 0, ErrSuspended
	}
	e.ID = len(p.entries)
	e.Published = p.clock.Now()
	if acc.FirstUpload.IsZero() {
		acc.FirstUpload = e.Published
	}
	p.entries = append(p.entries, e)
	p.byHash[e.InfoHash] = e
	acc.uploads = append(acc.uploads, e)
	p.rev++
	return e.ID, nil
}

// ErrNotFound is returned for unknown torrents or accounts.
var ErrNotFound = errors.New("portal: not found")

// Remove takes a torrent down (moderation) and suspends the publishing
// account, mirroring how the portals in the paper fight index poisoning.
func (p *Portal) Remove(ih metainfo.Hash) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.byHash[ih]
	if e == nil {
		return ErrNotFound
	}
	if e.Removed {
		return nil
	}
	now := p.clock.Now()
	e.Removed = true
	e.RemovedAt = now
	if acc := p.accounts[e.Username]; acc != nil && !acc.Suspended {
		acc.Suspended = true
		acc.SuspendedAt = now
	}
	p.rev++
	return nil
}

// SuspendAccount suspends an account and removes every one of its live
// uploads at once — the account-level moderation portals apply when they
// identify a fake operation: the user page and all its torrents disappear
// together, rather than decoy by decoy.
func (p *Portal) SuspendAccount(username string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	acc := p.accounts[username]
	if acc == nil {
		return ErrNotFound
	}
	now := p.clock.Now()
	if !acc.Suspended {
		acc.Suspended = true
		acc.SuspendedAt = now
	}
	for _, e := range acc.uploads {
		if !e.Removed {
			e.Removed = true
			e.RemovedAt = now
		}
	}
	p.rev++
	return nil
}

// Entry returns the entry for a hash; removed entries yield ErrNotFound
// (the page and .torrent are gone), matching what the crawler sees.
func (p *Portal) Entry(ih metainfo.Hash) (*Entry, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e := p.byHash[ih]
	if e == nil || e.Removed {
		return nil, ErrNotFound
	}
	return e, nil
}

// Account returns a user page. Suspended accounts yield ErrNotFound — the
// portal deletes fake publishers' pages, which is precisely the signal the
// paper's classifier uses (footnote 8).
func (p *Portal) Account(username string) (*Account, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	acc := p.accounts[username]
	if acc == nil || acc.Suspended {
		return nil, ErrNotFound
	}
	return acc, nil
}

// Recent returns the most recent non-removed entries, newest first,
// up to limit — the portal's RSS window.
func (p *Portal) Recent(limit int) []*Entry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Entry, 0, limit)
	for i := len(p.entries) - 1; i >= 0 && len(out) < limit; i-- {
		if !p.entries[i].Removed {
			out = append(out, p.entries[i])
		}
	}
	return out
}

// EntriesSince returns non-removed entries published after t, oldest first.
func (p *Portal) EntriesSince(t time.Time) []*Entry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	// entries is publish-ordered; binary search for the boundary.
	i := sort.Search(len(p.entries), func(i int) bool {
		return p.entries[i].Published.After(t)
	})
	var out []*Entry
	for ; i < len(p.entries); i++ {
		if !p.entries[i].Removed {
			out = append(out, p.entries[i])
		}
	}
	return out
}

// Stats summarises the index.
type Stats struct {
	Torrents  int
	Removed   int
	Accounts  int
	Suspended int
}

// Stats reports index-level counters.
func (p *Portal) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{Torrents: len(p.entries), Accounts: len(p.accounts)}
	for _, e := range p.entries {
		if e.Removed {
			st.Removed++
		}
	}
	for _, a := range p.accounts {
		if a.Suspended {
			st.Suspended++
		}
	}
	return st
}
