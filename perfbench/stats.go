package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/oms"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// With fewer, the percentile is set by a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples.
// It refuses when fewer than minBeyond samples lie beyond the rank, so a
// run too short for the percentile it reports fails instead of printing
// a number that does not repeat.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if beyond := n - rankOf(n, q); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return quantile(samples, q), nil
}

// quantile is the nearest-rank q-quantile of samples without the
// percentile rule, or 0 for none. Per-layer figures use it: a layer
// called a few times a round still gets a figure, and it has no bound.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
func rankOf(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// fingerprint hashes a store snapshot's wire encoding without its
// next_oid field. A replica applies only committed records, so its OID
// allocator may sit below the primary's (rolled-back creates burn OIDs
// on the primary alone) while the objects, attributes and links agree.
func fingerprint(sn *oms.Snapshot) (string, error) {
	data, err := sn.EncodeJSON()
	if err != nil {
		return "", err
	}
	return fingerprintJSON(data)
}

func fingerprintJSON(data []byte) (string, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	delete(m, "next_oid")
	canon, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
