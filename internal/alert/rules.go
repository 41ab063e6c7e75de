package alert

import (
	"fmt"
	"math"
	"time"

	"btpub/internal/analysis"
	"btpub/internal/classify"
)

// Rule names. Each maintains at most one alert per subject.
const (
	// RuleUploadBurst fires on upload-rate bursts: too many publications
	// inside one sliding 48h window. Antipiracy blitz plants publish
	// 4-7 torrents/day per sock-puppet for 1.5-3 days.
	RuleUploadBurst = "upload-burst"
	// RuleAliasCluster fires when a publisher-IP pool links too many
	// identities: the alias/blitz plants drive a handful of hosting IPs
	// under many usernames.
	RuleAliasCluster = "alias-cluster"
	// RuleIPChurn fires when one identity publishes from many addresses —
	// the churned-IP linkage signal.
	RuleIPChurn = "ip-churn"
	// RuleFakeSignal fires on the portal moderation signals classify
	// uses: deleted account, or a majority of uploads removed.
	RuleFakeSignal = "fake-signal"
)

// Thresholds: a rule's raw measure divided by its threshold is the
// score; >= 1 fires.
const (
	burstWindow    = 48 * time.Hour
	burstThreshold = 8 // uploads per window
	aliasThreshold = 3 // identities sharing one publisher IP
	churnThreshold = 5 // distinct publisher IPs for one identity
)

// evaluate scores one publisher identity and returns its active alerts
// (score >= 1), without lifecycle fields — the engine fills those in.
// A nil UserFacts (identity no longer present) returns nothing, which
// resolves any open alerts for the subject.
func evaluate(an *analysis.Analysis, subject string) []Alert {
	u := an.Facts.Users[subject]
	if u == nil {
		return nil
	}
	first, last, times := an.UploadTimes(u)
	var out []Alert
	add := func(rule string, score float64, reasons ...string) {
		if score < 1 {
			return
		}
		// Two decimals keeps the wire value stable and readable.
		score = math.Round(score*100) / 100
		sev := SeverityWarning
		if score >= 2 {
			sev = SeverityCritical
		}
		out = append(out, Alert{
			ID: rule + "/" + subject, Rule: rule, Subject: subject,
			Severity: sev, Score: score, State: StateFiring, Reasons: reasons,
			Torrents: len(u.TorrentIDs), IPs: len(u.IPs), Removed: u.RemovedTorrents,
			FirstUpload: first, LastUpload: last,
		})
	}

	if burst := maxInWindow(times, burstWindow); burst >= 2 {
		add(RuleUploadBurst, float64(burst)/burstThreshold,
			fmt.Sprintf("%d uploads inside one %s window (threshold %d)", burst, burstWindow, burstThreshold))
	}
	if peers, poolIP := aliasPeers(an, u); peers >= 2 {
		add(RuleAliasCluster, float64(peers)/aliasThreshold,
			fmt.Sprintf("%d identities publish from %s (threshold %d)", peers, poolIP, aliasThreshold))
	}
	add(RuleIPChurn, float64(len(u.IPs))/churnThreshold,
		fmt.Sprintf("%d distinct publisher IPs across %d torrents (threshold %d)", len(u.IPs), len(u.TorrentIDs), churnThreshold))
	if fakeScore := fakeSignalScore(u); fakeScore > 0 {
		reason := fmt.Sprintf("%d of %d uploads removed by the portal", u.RemovedTorrents, len(u.TorrentIDs))
		if u.AccountDeleted {
			reason = "portal deleted the account"
		}
		add(RuleFakeSignal, fakeScore, reason)
	}
	return out
}

// maxInWindow is the largest number of sorted timestamps inside any
// half-open window of length w.
func maxInWindow(times []int64, w time.Duration) int {
	best, lo := 0, 0
	for hi := range times {
		for times[hi]-times[lo] >= int64(w) {
			lo++
		}
		if n := hi - lo + 1; n > best {
			best = n
		}
	}
	return best
}

// aliasPeers is the largest identity count sharing any of the subject's
// publisher IPs, and the busiest IP.
func aliasPeers(an *analysis.Analysis, u *classify.UserFacts) (int, string) {
	best, bestIP := 0, ""
	for _, ip := range u.IPs {
		if n := len(an.Facts.ByIP[ip]); n > best {
			best, bestIP = n, ip
		}
	}
	return best, bestIP
}

// fakeSignalScore maps classify's fake-publisher signals to a score:
// account deletion is decisive (2.0, critical), removed-upload majority
// crosses 1.0 exactly when classify.UserFacts.Fake does.
func fakeSignalScore(u *classify.UserFacts) float64 {
	if u.AccountDeleted {
		return 2
	}
	if len(u.TorrentIDs) == 0 {
		return 0
	}
	return float64(u.RemovedTorrents) * 2 / float64(len(u.TorrentIDs))
}
