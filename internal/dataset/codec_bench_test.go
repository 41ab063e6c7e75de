package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"
)

// benchDataset builds a crawl-shaped dataset: obsPerTorrent observations
// across torrents, ~1/8 distinct IPs, timestamps marching forward.
func benchDataset(torrents, obsPerTorrent int) *Dataset {
	d := &Dataset{Name: "bench", Start: t0, End: t0.AddDate(0, 1, 0)}
	for i := 0; i < torrents; i++ {
		d.AddTorrent(&TorrentRecord{TorrentID: i, InfoHash: fmt.Sprintf("%040x", i), Published: t0})
		for j := 0; j < obsPerTorrent; j++ {
			k := (i*131 + j*17) % 6000 // ~6k distinct addresses overall
			d.AddObservation(Observation{
				TorrentID: i,
				IP:        fmt.Sprintf("10.%d.%d.%d", k/62500, k/250%250, k%250),
				At:        t0.Add(time.Duration(j) * 11 * time.Minute),
				Seeder:    j == 0,
			})
		}
	}
	return d
}

// BenchmarkObsWrite measures the hand-rolled observation-line encoder.
func BenchmarkObsWrite(b *testing.B) {
	d := benchDataset(100, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsWriteLegacy is the pre-columnar json.Encoder path, for
// comparison.
func BenchmarkObsWriteLegacy(b *testing.B) {
	d := benchDataset(100, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw := bufio.NewWriterSize(io.Discard, 1<<16)
		enc := json.NewEncoder(bw)
		if err := enc.Encode(headerLine{Kind: "header", Name: d.Name, Start: d.Start, End: d.End}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < d.NumObservations(); j++ {
			if err := enc.Encode(obsLine{Kind: "obs", Observation: d.Obs.At(j)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsRead measures the fast-path observation-line decoder.
func BenchmarkObsRead(b *testing.B) {
	d := benchDataset(100, 500)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeShards measures the canonical merge of four shard stores.
func BenchmarkMergeShards(b *testing.B) {
	parts := make([]*Dataset, 4)
	for p := range parts {
		parts[p] = benchDataset(50, 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Merge("m", parts...)
		if m.NumObservations() == 0 {
			b.Fatal("empty merge")
		}
	}
}

// metaDataset is a records-only dataset: fully populated torrent
// records and user records, no observations.
func metaDataset(torrents, users int) *Dataset {
	d := &Dataset{Name: "bench", Start: t0, End: t0.AddDate(0, 1, 0)}
	for i := 0; i < torrents; i++ {
		d.AddTorrent(&TorrentRecord{
			TorrentID: i, InfoHash: fmt.Sprintf("%040x", i),
			Title: fmt.Sprintf("Some.Movie.%d.DVDRip", i), Category: "Video > Movies",
			SizeBytes: 700 << 20, FileName: fmt.Sprintf("Some.Movie.%d.avi", i),
			Description:  "visit www.example-tracker.com",
			BundledFiles: []string{"Visit www.example-tracker.com.txt"},
			Username:     fmt.Sprintf("user%d", i%users), PublisherIP: fmt.Sprintf("11.0.%d.%d", i/250, i%250),
			Published:        t0.Add(time.Duration(i) * time.Minute),
			FirstSeenSeeders: 1, FirstSeenPeers: i % 20, Removed: i%9 == 0,
		})
	}
	for i := 0; i < users; i++ {
		d.Users = append(d.Users, UserRecord{Username: fmt.Sprintf("user%d", i), Exists: true,
			MemberSince: t0.AddDate(-2, 0, 0), FirstUpload: t0.AddDate(-1, 0, 0), TotalUploads: i})
	}
	return d
}

// BenchmarkReadMeta measures decoding a record-only file of 2 000
// torrents and 200 users: the record lines of a JSONL dataset, which
// btpub-analyze -in and -import read.
func BenchmarkReadMeta(b *testing.B) {
	var buf bytes.Buffer
	if err := metaDataset(2000, 200).Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
