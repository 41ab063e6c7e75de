package alert

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"
)

// Notifier receives the alerts a refresh materially changed. The serve
// layer calls it after each evaluation with a non-empty change set;
// failures are the notifier's to report — alert state has already been
// committed to the store either way.
type Notifier interface {
	Notify(ctx context.Context, alerts []Alert) error
}

// LogNotifier writes one line per alert to a standard logger.
type LogNotifier struct {
	Log *log.Logger
}

// Notify implements Notifier.
func (n *LogNotifier) Notify(_ context.Context, alerts []Alert) error {
	for _, a := range alerts {
		n.Log.Printf("alert %s %s score=%.2f v%d: %s", a.State, a.ID, a.Score, a.UpdatedVersion, strings.Join(a.Reasons, "; "))
	}
	return nil
}

// webhookTimeout bounds one webhook delivery, connect to response.
const webhookTimeout = 10 * time.Second

var webhookClient = &http.Client{Timeout: webhookTimeout}

// WebhookNotifier POSTs the changed alerts as one JSON array per batch —
// the btpub-serve -alert-webhook wiring.
type WebhookNotifier struct {
	URL string
}

// Notify implements Notifier.
func (n *WebhookNotifier) Notify(ctx context.Context, alerts []Alert) error {
	body, err := json.Marshal(alerts)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.URL, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := webhookClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("alert webhook: %s returned %s", n.URL, resp.Status)
	}
	return nil
}

// MultiNotifier fans out to several notifiers, returning the first
// error after trying all.
type MultiNotifier []Notifier

// Notify implements Notifier.
func (m MultiNotifier) Notify(ctx context.Context, alerts []Alert) error {
	var first error
	for _, n := range m {
		if err := n.Notify(ctx, alerts); err != nil && first == nil {
			first = err
		}
	}
	return first
}
