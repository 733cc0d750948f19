package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/digests.json with the current digests")

// goldenPath holds the pinned digest corpus.
var goldenPath = filepath.Join("testdata", "golden", "digests.json")

// goldenEntry pins one scenario spec to its digest. With Trials == 0 the
// digest is the DigestResult of one run; with Trials > 0 it is the
// DigestAggregate of a sweep over seeds seed..seed+Trials-1, exactly as
// `bgpsim -scenario <spec> -trials N -digest` computes it.
type goldenEntry struct {
	Name   string          `json:"name"`
	Spec   json.RawMessage `json:"spec"`
	Trials int             `json:"trials,omitempty"`
	Digest string          `json:"digest"`
}

// TestGoldenDigests pins result digests across commits: any change to the
// simulation kernel, the metrics, or the result encoding that moves one of
// these digests fails here. Re-pin only on purpose, with
// `go test ./internal/experiment -run TestGoldenDigests -update`, and record
// the old and new digests with the reason in CHANGES.md.
func TestGoldenDigests(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var corpus []goldenEntry
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	seen := map[string]bool{}
	for i := range corpus {
		e := &corpus[i]
		if seen[e.Name] {
			t.Fatalf("duplicate golden entry %q", e.Name)
		}
		seen[e.Name] = true
		got := goldenDigest(t, *e)
		if got == e.Digest {
			continue
		}
		if *updateGolden {
			e.Digest = got
			continue
		}
		t.Errorf("%s: digest %s, pinned %s", e.Name, got, e.Digest)
	}
	if !*updateGolden {
		return
	}
	out, err := json.MarshalIndent(corpus, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if !bytes.Equal(out, data) {
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenDigest computes the digest an entry pins.
func goldenDigest(t *testing.T, e goldenEntry) string {
	t.Helper()
	s, err := LoadScenario(bytes.NewReader(e.Spec))
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	if e.Trials > 0 {
		agg, _, _, err := RunSweep(Repeat(s), e.Trials, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		d, err := DigestAggregate(agg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	res, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	d, err := DigestResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
