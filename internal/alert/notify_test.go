package alert

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

var notifyAlerts = []Alert{
	{ID: "upload-burst/alice", Rule: "upload-burst", Subject: "alice", Severity: SeverityCritical,
		Score: 1.25, State: StateFiring, Reasons: []string{"12 uploads in 1h", "3 removed"},
		FiredVersion: 5, UpdatedVersion: 7, Torrents: 12},
	{ID: "ip-churn/bob", Rule: "ip-churn", Subject: "bob", Score: 0.5, State: StateResolved,
		FiredVersion: 2, UpdatedVersion: 9, ResolvedVersion: 9},
}

func TestLogNotifierLineFormat(t *testing.T) {
	var buf bytes.Buffer
	n := &LogNotifier{Log: log.New(&buf, "", 0)}
	if err := n.Notify(context.Background(), notifyAlerts); err != nil {
		t.Fatal(err)
	}
	want := "alert firing upload-burst/alice score=1.25 v7: 12 uploads in 1h; 3 removed\n" +
		"alert resolved ip-churn/bob score=0.50 v9: \n"
	if got := buf.String(); got != want {
		t.Fatalf("log lines:\n%q\nwant\n%q", got, want)
	}
}

// captured is what a webhook receiver saw of one request.
type captured struct {
	method, contentType string
	body                []byte
}

// webhookReceiver answers every request with status and hands what it
// received to the returned channel.
func webhookReceiver(t *testing.T, status int) (*httptest.Server, <-chan captured) {
	t.Helper()
	got := make(chan captured, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- captured{r.Method, r.Header.Get("Content-Type"), body}
		w.WriteHeader(status)
	}))
	t.Cleanup(srv.Close)
	return srv, got
}

func TestWebhookNotifierPostsJSONArray(t *testing.T) {
	srv, got := webhookReceiver(t, http.StatusNoContent)
	n := &WebhookNotifier{URL: srv.URL + "/hook"}
	if err := n.Notify(context.Background(), notifyAlerts); err != nil {
		t.Fatal(err)
	}
	req := <-got
	if req.method != http.MethodPost || req.contentType != "application/json" {
		t.Fatalf("request %s with Content-Type %q, want POST application/json", req.method, req.contentType)
	}
	var decoded []Alert
	if err := json.Unmarshal(req.body, &decoded); err != nil {
		t.Fatalf("body is not a JSON alert array: %v\n%s", err, req.body)
	}
	if !reflect.DeepEqual(decoded, notifyAlerts) {
		t.Fatalf("body decodes to %+v, want %+v", decoded, notifyAlerts)
	}
}

func TestWebhookNotifierNon2xxIsError(t *testing.T) {
	srv, got := webhookReceiver(t, http.StatusServiceUnavailable)
	url := srv.URL + "/hook"
	err := (&WebhookNotifier{URL: url}).Notify(context.Background(), notifyAlerts[:1])
	<-got
	if err == nil {
		t.Fatal("503 reply accepted")
	}
	for _, want := range []string{url, "503 Service Unavailable"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// notifyFunc adapts a function to Notifier.
type notifyFunc func() error

func (f notifyFunc) Notify(context.Context, []Alert) error { return f() }

func TestMultiNotifierTriesAllReturnsFirstError(t *testing.T) {
	errA, errB := errors.New("a failed"), errors.New("b failed")
	var called []string
	m := MultiNotifier{
		notifyFunc(func() error { called = append(called, "ok"); return nil }),
		notifyFunc(func() error { called = append(called, "a"); return errA }),
		notifyFunc(func() error { called = append(called, "b"); return errB }),
	}
	if err := m.Notify(context.Background(), notifyAlerts); err != errA {
		t.Fatalf("err = %v, want the first failure %v", err, errA)
	}
	if want := []string{"ok", "a", "b"}; !reflect.DeepEqual(called, want) {
		t.Fatalf("called %v, want %v", called, want)
	}
}
