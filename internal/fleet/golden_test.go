package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestJournalGoldenDigests pins what the simulator computes: the sha256
// of the journal WriteJournal writes for the default matrix (the seven
// Table IV apps and the six handcrafted attacks in the four defense
// columns) and for Generate(1, 64) in the four columns, at one worker
// and at the default pool. They are the digests of the journals
// `eilid-fleet -q -json` and `eilid-fleet -gen 64 -seed 1 -no-apps
// -no-scenarios -q -json` write. A change that means only to run faster
// must leave them as they are; one that means to change simulated
// behaviour or the journal encoding updates them in the same diff.
func TestJournalGoldenDigests(t *testing.T) {
	p := newPipeline(t)
	cases := []struct {
		name   string
		matrix MatrixSpec
		sha    string
	}{
		{"default", MatrixSpec{}, "d17d5102006721b00743d7384140bc5bb06473b3d4c6c2ab7d2679c17ff7386d"},
		{"gen-64-seed-1", MatrixSpec{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 64}},
			"39a52b801c988a3bd635e0d5cb38b16e561cefb3afde6c82cac6a2877cab29cd"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 0} {
			r, err := NewRunner(p, BatchSpec{Matrix: tc.matrix, Exec: ExecSpec{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			data, interrupted := journalRun(t, r, -1)
			if interrupted {
				t.Fatalf("%s: interrupted without a cancel", tc.name)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("%s at %d workers: journal sha256 %s, want %s", tc.name, r.Workers(), got, tc.sha)
			}
		}
	}
}
