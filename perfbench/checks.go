// Output checks on a selected pattern set, and the canonical digest that
// must be identical for every build of one dataset.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	catapult "repro"
	"repro/internal/canon"
	"repro/internal/subiso"
)

// checkPatterns verifies a build's output against its budget and input:
// γ patterns unless Exhausted is reported; each pattern connected, within
// [ηmin, ηmax] edges and contained in the cluster summary graph (CSG) that
// proposed it; no two patterns isomorphic. It returns every violation
// found.
//
// Candidates are random walks over CSGs, which are closures of several
// cluster members, so a pattern need not embed into any single database
// graph; dbContainedShare reports how many do.
func checkPatterns(res *catapult.Result, b catapult.Budget) []error {
	patterns, exhausted := res.Patterns, res.Exhausted
	var errs []error
	switch {
	case len(patterns) > b.Gamma:
		errs = append(errs, fmt.Errorf("%d patterns exceed γ=%d", len(patterns), b.Gamma))
	case len(patterns) < b.Gamma && !exhausted:
		errs = append(errs, fmt.Errorf("%d patterns < γ=%d without Exhausted", len(patterns), b.Gamma))
	case len(patterns) == 0:
		errs = append(errs, errors.New("empty pattern set"))
	}
	seen := make(map[string]int, len(patterns))
	for i, pat := range patterns {
		p := pat.Graph
		if !p.IsConnected() {
			errs = append(errs, fmt.Errorf("pattern %d is disconnected", i))
		}
		if e := p.NumEdges(); e < b.EtaMin || e > b.EtaMax {
			errs = append(errs, fmt.Errorf("pattern %d has %d edges, outside [%d,%d]", i, e, b.EtaMin, b.EtaMax))
		}
		if src := pat.SourceCSG; src < 0 || src >= len(res.CSGs) || !subiso.Contains(res.CSGs[src].G, p) {
			errs = append(errs, fmt.Errorf("pattern %d is not contained in its source CSG %d", i, src))
		}
		c := canon.String(p)
		if j, dup := seen[c]; dup {
			errs = append(errs, fmt.Errorf("patterns %d and %d are isomorphic", j, i))
		}
		seen[c] = i
	}
	return errs
}

// dbContainedShare is the share of patterns contained in at least one
// database graph.
func dbContainedShare(db *catapult.DB, patterns []*catapult.Graph) float64 {
	n := 0
	for _, p := range patterns {
		for _, g := range db.Graphs {
			if subiso.Contains(g, p) {
				n++
				break
			}
		}
	}
	return ratio(float64(n), float64(len(patterns)))
}

// patternDigest is the SHA-256 of the patterns' canonical forms in
// selection order: equal digests mean the same panel, pattern for pattern.
func patternDigest(patterns []*catapult.Graph) string {
	h := sha256.New()
	for _, p := range patterns {
		h.Write([]byte(canon.String(p)))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestStore remembers the digest of every dataset built by one build of
// the benchmark binary, so a later run at the same seed must reproduce it.
// Keying the directory by the binary's own hash keeps digests of edited
// code apart.
type digestStore struct{ dir string }

func openDigestStore(root string) (*digestStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(root, "digests", hex.EncodeToString(sum[:8]))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &digestStore{dir: dir}, nil
}

// check compares digest with the one recorded for key, recording it when
// none is.
func (s *digestStore) check(key, digest string) error {
	path := filepath.Join(s.dir, key)
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(old)); got != digest {
			return fmt.Errorf("%s: pattern digest %.12s differs from %.12s of an earlier run", key, digest, got)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(digest+"\n"), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}
