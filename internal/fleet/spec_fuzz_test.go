package fleet

import (
	"bytes"
	"math"
	"math/big"
	"reflect"
	"testing"
)

// FuzzBatchSpec feeds arbitrary bytes to DecodeSpec, the decoder
// `eilid-fleet -spec` and fleetd's POST /batches share (strict: unknown
// fields and trailing data are errors), and resolves the result. The
// committed corpus under testdata/fuzz/FuzzBatchSpec holds `-dump-spec`
// output and specs the decoder or ResolveSpec must reject. Nothing may panic.
// A spec ResolveSpec accepts must re-resolve to itself, fingerprint the
// same before and after resolution, and count its jobs against any
// limit without overflow: JobCount reports ok exactly when the true
// product is within the limit, and then returns it.
func FuzzBatchSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		rs, err := ResolveSpec(spec)
		if err != nil {
			return
		}
		again, err := ResolveSpec(rs)
		if err != nil {
			t.Fatalf("resolved spec rejected on re-resolution: %v", err)
		}
		if !reflect.DeepEqual(again, rs) {
			t.Fatalf("resolution is not idempotent:\n%+v\n%+v", rs, again)
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp2, err := rs.Fingerprint(); err != nil || fp2 != fp {
			t.Fatalf("fingerprint %s before resolution, %s (%v) after", fp, fp2, err)
		}
		m := rs.Matrix
		exact := big.NewInt(int64(len(m.Apps) + len(m.Scenarios)))
		exact.Add(exact, big.NewInt(int64(m.Generated.Count)))
		exact.Mul(exact, big.NewInt(int64(len(m.Defenses))))
		exact.Mul(exact, big.NewInt(int64(m.Repeat)))
		for _, limit := range []int{0, 1, 65536, math.MaxInt} {
			n, ok := m.JobCount(limit)
			fits := exact.Cmp(big.NewInt(int64(limit))) <= 0
			if ok != fits || ok && int64(n) != exact.Int64() {
				t.Fatalf("JobCount(%d) = %d, %v; the matrix holds %s jobs", limit, n, ok, exact)
			}
		}
	})
}
