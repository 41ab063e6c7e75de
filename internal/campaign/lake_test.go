package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"btpub/internal/dataset"
	"btpub/internal/lake"
)

func datasetBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLakePersistence: a campaign run with Spec.Lake must leave the lake
// holding exactly the dataset the run returns — both in the serial
// live-streaming mode and in the sharded post-merge import mode — and
// running the same spec again must write a byte-identical lake directory
// (Materialize re-sorts, so only the files themselves can show a commit
// order that varies from run to run).
func TestLakePersistence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"serial-live-stream", 1},
		{"sharded-import", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			persist := func(dir string) {
				lk, err := lake.Open(dir, lake.Options{FlushRows: 2000})
				if err != nil {
					t.Fatal(err)
				}
				defer lk.Close()
				res, err := Run(Spec{
					Scale: 0.01, MeanDownloads: 120, Seed: 42,
					Shards: tc.shards, Lake: lk,
				})
				if err != nil {
					t.Fatal(err)
				}
				mat, _, err := lk.Materialize(context.Background(), lake.Predicate{})
				if err != nil {
					t.Fatal(err)
				}
				want := datasetBytes(t, res.Dataset)
				got := datasetBytes(t, mat)
				if !bytes.Equal(got, want) {
					t.Fatalf("lake contents differ from campaign dataset (%d vs %d bytes)", len(got), len(want))
				}
				if st := lk.Stats(); st.Observations != int64(res.Dataset.NumObservations()) {
					t.Fatalf("lake stats %d observations, campaign has %d", st.Observations, res.Dataset.NumObservations())
				}
			}
			a, b := filepath.Join(t.TempDir(), "lake"), filepath.Join(t.TempDir(), "lake")
			persist(a)
			persist(b)
			sameDir(t, a, b)
		})
	}
}

// sameDir fails the test unless two directories hold the same file names
// with the same bytes.
func sameDir(t *testing.T, a, b string) {
	t.Helper()
	read := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = buf
		}
		return files
	}
	fa, fb := read(a), read(b)
	if len(fa) != len(fb) {
		t.Fatalf("lake directories hold %d and %d files", len(fa), len(fb))
	}
	for name, buf := range fa {
		other, ok := fb[name]
		if !ok {
			t.Fatalf("%s is missing from the second lake", name)
		}
		if !bytes.Equal(buf, other) {
			t.Fatalf("%s differs between two runs of the same spec", name)
		}
	}
}

// TestLakeAccumulatesCampaigns: two runs into one lake must accumulate
// with offset torrent IDs instead of colliding.
func TestLakeAccumulatesCampaigns(t *testing.T) {
	lk, err := lake.Open(filepath.Join(t.TempDir(), "lake"), lake.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	a, err := Run(Spec{Scale: 0.01, MeanDownloads: 120, Seed: 42, Lake: lk, DatasetName: "first"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Spec{Scale: 0.01, MeanDownloads: 120, Seed: 43, Lake: lk, DatasetName: "second"})
	if err != nil {
		t.Fatal(err)
	}
	mat, _, err := lk.Materialize(context.Background(), lake.Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	wantTorrents := len(a.Dataset.Torrents) + len(b.Dataset.Torrents)
	wantObs := a.Dataset.NumObservations() + b.Dataset.NumObservations()
	if len(mat.Torrents) != wantTorrents || mat.NumObservations() != wantObs {
		t.Fatalf("union = %d torrents / %d obs, want %d / %d",
			len(mat.Torrents), mat.NumObservations(), wantTorrents, wantObs)
	}
	if mat.DroppedObservations != 0 {
		t.Fatalf("union dropped %d observations", mat.DroppedObservations)
	}
}
