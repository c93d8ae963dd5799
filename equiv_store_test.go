package bivoc_test

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"bivoc"
)

// End-to-end equivalence for the persistence subsystem: a bivocd warm
// restart — where the index is decoded from an on-disk segment instead
// of rebuilt by the ingest pipeline — must answer every endpoint
// byte-identically to the in-memory daemon. This is the acceptance gate
// that lets the segment format change representation (varint deltas,
// interned strings) without any observable difference at the API.

// storeEquivEndpoints is the full bivocd surface the disk-loaded index
// is pinned against: the six /v1 analytics endpoints (concepts counted
// twice, once per selector) plus /healthz. /statsz is excluded from the
// byte-level comparison only because its cache counters and store
// section legitimately differ between a cold and a warm process.
func storeEquivEndpoints() map[string]string {
	weak := "weak start[customer intention]"
	strong := "strong start[customer intention]"
	res := "outcome=reservation"
	unb := "outcome=unbooked"
	conj := weak + " ∧ " + res
	return map[string]string{
		"count": "/v1/count?" + url.Values{"dim": {res, weak, conj}}.Encode(),
		"associate": "/v1/associate?" + url.Values{
			"row": {strong, weak}, "col": {res, unb}, "confidence": {"0.9"},
		}.Encode(),
		"relfreq":        "/v1/relfreq?" + url.Values{"category": {"discount"}, "featured": {conj}}.Encode(),
		"drilldown":      "/v1/drilldown?" + url.Values{"row": {weak}, "col": {res}, "limit": {"5"}}.Encode(),
		"drilldown-all":  "/v1/drilldown?" + url.Values{"row": {weak}, "col": {res}, "limit": {"100000"}}.Encode(), // limit ≥ corpus: nothing truncates, order alone must agree
		"trend":          "/v1/trend?" + url.Values{"dim": {weak}}.Encode(),
		"concepts-cat":   "/v1/concepts?" + url.Values{"category": {"customer intention"}}.Encode(),
		"concepts-field": "/v1/concepts?" + url.Values{"field": {"outcome"}}.Encode(),
		"healthz":        "/healthz",
	}
}

// storeEquivConfig pins both snapshot cadences off so every run ends at
// generation 1 regardless of ingest timing — generation appears in the
// response bodies, and the byte comparison must not depend on how many
// intermediate snapshots a run happened to publish.
func storeEquivConfig(dataDir string) bivoc.ServeConfig {
	cfg := bivoc.DefaultServeConfig()
	cfg.Analysis.World.CallsPerDay = 60
	cfg.Analysis.World.Days = 3
	cfg.Addr = "127.0.0.1:0"
	cfg.CacheSize = -1 // every request recomputes against the index
	cfg.SwapInterval = 0
	cfg.SwapEvery = 0
	cfg.DataDir = dataDir
	return cfg
}

// runSealedServer boots a daemon, waits for the sealed snapshot, and
// returns it with a shutdown func.
func runSealedServer(t *testing.T, cfg bivoc.ServeConfig) (*bivoc.QueryServer, func()) {
	t.Helper()
	s, err := bivoc.NewQueryServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}
	select {
	case <-s.IngestDone():
	case <-time.After(120 * time.Second):
		stop()
		t.Fatal("ingest did not seal")
	}
	return s, stop
}

func fetchBody(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// TestServerEndpointsDiskMemoryEquivalence runs the same synthetic
// engagement through three daemon incarnations — pure in-memory,
// persistence-enabled first boot, and a warm restart whose index came
// off disk — and requires byte-identical bodies across all of them on
// every endpoint.
func TestServerEndpointsDiskMemoryEquivalence(t *testing.T) {
	t.Parallel()
	endpoints := storeEquivEndpoints()
	dir := t.TempDir()

	// Oracle: the plain in-memory daemon.
	mem, stopMem := runSealedServer(t, storeEquivConfig(""))
	want := make(map[string]string, len(endpoints))
	for name, path := range endpoints {
		want[name] = fetchBody(t, mem.Addr(), path)
	}
	stopMem()

	// First durable boot: same pipeline, but the seal also writes the
	// segment. Its answers must not be perturbed by the persistence work.
	disk1, stopDisk1 := runSealedServer(t, storeEquivConfig(dir))
	if err := disk1.PersistErr(); err != nil {
		t.Fatalf("persistence error on first durable boot: %v", err)
	}
	for name, path := range endpoints {
		if got := fetchBody(t, disk1.Addr(), path); got != want[name] {
			t.Errorf("durable boot: %s diverges from in-memory daemon:\n got %s\nwant %s", name, got, want[name])
		}
	}
	stopDisk1()

	// Warm restart: the served index was decoded from the segment, not
	// rebuilt — the strongest test of the on-disk representation.
	disk2, stopDisk2 := runSealedServer(t, storeEquivConfig(dir))
	defer stopDisk2()
	segDocs, walDocs, walDropped := disk2.RecoveryInfo()
	if segDocs != 60*3 || walDocs != 0 || walDropped != 0 {
		t.Errorf("warm restart recovered (%d, %d, %d), want (180, 0, 0)", segDocs, walDocs, walDropped)
	}
	for name, path := range endpoints {
		if got := fetchBody(t, disk2.Addr(), path); got != want[name] {
			t.Errorf("disk-loaded: %s diverges from in-memory daemon:\n got %s\nwant %s", name, got, want[name])
		}
	}
}
