package analysis

import (
	"errors"
	"sort"
	"time"

	"btpub/internal/classify"
	"btpub/internal/stats"
	"btpub/internal/webmon"
)

// BusinessSummary aggregates Section 5.1 per business class.
type BusinessSummary struct {
	Class classify.BusinessClass
	// Publishers in the class and its share of the top group.
	Publishers int
	TopShare   float64
	// ContentShare / DownloadShare relative to the whole dataset.
	ContentShare  float64
	DownloadShare float64
	// TextboxShare is the fraction of the class's promo sightings carried
	// by the page textbox (the paper's dominant channel).
	TextboxShare float64
	// LanguageSpecific counts publishers promoting one-language sites;
	// Spanish counts the Spanish subset (Section 5.1's 40 % / 66 %).
	LanguageSpecific int
	Spanish          int
}

// Business runs the classification and aggregates it.
func (a *Analysis) Business(insp classify.SiteInspector) ([]classify.BusinessProfile, []BusinessSummary, error) {
	profiles, err := classify.ClassifyBusiness(a.Facts, a.Groups, insp)
	if err != nil {
		return nil, nil, err
	}
	byClass := map[classify.BusinessClass][]classify.BusinessProfile{}
	for _, p := range profiles {
		byClass[p.Class] = append(byClass[p.Class], p)
	}
	var out []BusinessSummary
	for _, class := range []classify.BusinessClass{classify.BTPortal, classify.OtherWeb, classify.Altruist} {
		ps := byClass[class]
		sum := BusinessSummary{Class: class, Publishers: len(ps)}
		if len(profiles) > 0 {
			sum.TopShare = float64(len(ps)) / float64(len(profiles))
		}
		var textbox, promos int
		for _, p := range ps {
			sum.ContentShare += float64(p.Torrents)
			sum.DownloadShare += float64(p.Downloads)
			for ch, n := range p.Channels {
				promos += n
				if ch.String() == "textbox" {
					textbox += n
				}
			}
			if p.Language != "" {
				sum.LanguageSpecific++
				if p.Language == "es" {
					sum.Spanish++
				}
			}
		}
		if a.Facts.TotalTorrents > 0 {
			sum.ContentShare /= float64(a.Facts.TotalTorrents)
		}
		if a.Facts.TotalDownloads > 0 {
			sum.DownloadShare /= float64(a.Facts.TotalDownloads)
		}
		if promos > 0 {
			sum.TextboxShare = float64(textbox) / float64(promos)
		}
		out = append(out, sum)
	}
	return profiles, out, nil
}

// ---------------------------------------------------------------------
// Table 4 — longitudinal view
// ---------------------------------------------------------------------

// Longitudinal is one Table 4 row.
type Longitudinal struct {
	Class          classify.BusinessClass
	LifetimeDays   stats.MinMeanMax
	PublishingRate stats.MinMeanMax // contents per day over the lifetime
}

// LongitudinalView computes publisher lifetime and publishing rate per
// business class from the user-page sweep (Table 4).
func (a *Analysis) LongitudinalView(profiles []classify.BusinessProfile) ([]Longitudinal, error) {
	if len(a.DS.Users) == 0 {
		return nil, errors.New("analysis: dataset has no user records (run the final sweep)")
	}
	users := a.DS.UserByName()
	// Last appearance = last upload we saw during the window.
	lastUpload := map[string]time.Time{}
	for _, rec := range a.DS.Torrents {
		if rec.Username == "" {
			continue
		}
		if rec.Published.After(lastUpload[rec.Username]) {
			lastUpload[rec.Username] = rec.Published
		}
	}
	byClass := map[classify.BusinessClass][]classify.BusinessProfile{}
	for _, p := range profiles {
		byClass[p.Class] = append(byClass[p.Class], p)
	}
	var out []Longitudinal
	for _, class := range []classify.BusinessClass{classify.BTPortal, classify.OtherWeb, classify.Altruist} {
		var lifetimes, rates []float64
		for _, p := range byClass[class] {
			u, ok := users[p.Username]
			if !ok || !u.Exists || u.FirstUpload.IsZero() {
				continue
			}
			last := lastUpload[p.Username]
			if last.IsZero() {
				continue
			}
			days := last.Sub(u.FirstUpload).Hours() / 24
			if days < 1 {
				days = 1
			}
			lifetimes = append(lifetimes, days)
			rates = append(rates, float64(u.TotalUploads)/days)
		}
		out = append(out, Longitudinal{
			Class:          class,
			LifetimeDays:   stats.SummarizeMinMeanMax(lifetimes),
			PublishingRate: stats.SummarizeMinMeanMax(rates),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Table 5 — publishers' income
// ---------------------------------------------------------------------

// Income is one Table 5 row.
type Income struct {
	Class       classify.BusinessClass
	Sites       int
	ValueUSD    stats.MinMedianMeanMax
	DailyIncome stats.MinMedianMeanMax
	DailyVisits stats.MinMedianMeanMax
}

// IncomeView queries the six monitors for every promoted site and
// aggregates per class (Table 5).
func (a *Analysis) IncomeView(profiles []classify.BusinessProfile, mon *webmon.Directory) ([]Income, error) {
	if mon == nil {
		return nil, errors.New("analysis: monitor directory required")
	}
	type agg struct{ value, income, visits []float64 }
	acc := map[classify.BusinessClass]*agg{
		classify.BTPortal: {},
		classify.OtherWeb: {},
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if p.URL == "" || seen[p.URL] {
			continue
		}
		seen[p.URL] = true
		av, err := mon.Average(p.URL)
		if err != nil {
			continue // site vanished between crawl and estimation
		}
		g := acc[p.Class]
		if g == nil {
			continue
		}
		g.value = append(g.value, av.ValueUSD)
		g.income = append(g.income, av.DailyIncomeUSD)
		g.visits = append(g.visits, av.DailyVisits)
	}
	var out []Income
	for _, class := range []classify.BusinessClass{classify.BTPortal, classify.OtherWeb} {
		g := acc[class]
		out = append(out, Income{
			Class:       class,
			Sites:       len(g.value),
			ValueUSD:    stats.SummarizeMinMedianMeanMax(g.value),
			DailyIncome: stats.SummarizeMinMedianMeanMax(g.income),
			DailyVisits: stats.SummarizeMinMedianMeanMax(g.visits),
		})
	}
	return out, nil
}

// TopProfiles returns profiles sorted by published content, descending.
func TopProfiles(profiles []classify.BusinessProfile) []classify.BusinessProfile {
	cp := append([]classify.BusinessProfile(nil), profiles...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Torrents > cp[j].Torrents })
	return cp
}
