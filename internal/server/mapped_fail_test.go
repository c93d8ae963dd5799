//go:build unix

package server

import (
	"net/url"
	"os"
	"strings"
	"testing"

	"bivoc/internal/voctest"
)

// TestHealthzDegradedOnMappedDecodeFailure: a mapped segment whose
// bytes stop decoding — here the file is overwritten under the daemon,
// which a shared mapping sees at once — answers empty from then on, at
// 200. That must not stay silent: /healthz turns degraded and names the
// segment, /statsz carries the error in its store section, and queries
// keep answering. The same daemon, before the damage, is the control: a
// clean mapped daemon is "ok". (Only a real mapping sees the overwrite,
// hence the build tag: elsewhere a "mapped" segment is read once.)
func TestHealthzDegradedOnMappedDecodeFailure(t *testing.T) {
	docs := voctest.ParityDocs(150)
	dir, _ := sealCorpus(t, docs, nil)
	st := openMappedStore(t, dir)
	s := startServer(t, Config{Source: resumableSource(docs, nil), Persist: st, CacheSize: -1})
	waitIngestDone(t, s)
	stats := st.Stats()
	if stats.MappedSegments != 1 || stats.SegmentDocs != len(docs) {
		t.Fatalf("want one mapped segment, have %+v", stats)
	}
	base := "http://" + s.Addr()
	count := func(dim string) CountResponse {
		t.Helper()
		var r CountResponse
		getOK(t, base+"/v1/count?dim="+url.QueryEscape(dim), &r)
		return r
	}

	if r := count("parity=even"); r.Total != 150 || r.Counts[0] != 75 {
		t.Fatalf("clean mapped daemon counts %+v", r)
	}
	var health HealthResponse
	getOK(t, base+"/healthz", &health)
	if health.Status != "ok" || health.PersistError != "" || s.PersistErr() != nil {
		t.Fatalf("clean mapped daemon: /healthz %+v, PersistErr %v", health, s.PersistErr())
	}

	// Zero everything after the 8-byte header. The directory tables were
	// built at open, so the daemon still finds each list; it no longer
	// finds in it what the directory promised.
	f, err := os.OpenFile(stats.SegmentPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, stats.SegmentBytes-8), 8); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A list the postings cache does not hold yet: decoded now, from the
	// damaged bytes.
	if r := count("parity=odd"); r.Total != 150 || r.Counts[0] != 0 {
		t.Fatalf("count over the damaged segment = %+v, want 200 with an empty count", r)
	}
	getOK(t, base+"/healthz", &health)
	if health.Status != "degraded" || !strings.Contains(health.PersistError, "mapped segment") {
		t.Errorf("/healthz = %+v, want degraded with the mapping's error", health)
	}
	var statsz StatszResponse
	getOK(t, base+"/statsz", &statsz)
	if statsz.Store == nil || statsz.Store.PersistError != health.PersistError {
		t.Errorf("/statsz store section = %+v, want persist_error %q", statsz.Store, health.PersistError)
	}
	// Lists decoded before the damage are still served from the cache.
	if r := count("parity=even"); r.Counts[0] != 75 {
		t.Errorf("cached list after the damage counts %+v", r)
	}
}
