package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// pinnedDigests holds, per golden scenario, the SHA-256 of its per-epoch
// snapshot digests on the sweep (each digest length-prefixed, in epoch
// order).  The sweep-vs-oracle goldens only prove the two stepping paths
// agree; a change both paths share — how a PMU edge is queued, say — is
// invisible to them.  These constants pin the counters themselves, so any
// such change fails here.  They were recorded before the observer lane's
// per-block drain and the M2PCIe ingress pulse; a change that is meant to
// move a counter must re-record them and say why.
var pinnedDigests = map[string]string{
	"SingleCoreLocal": "3e709b4ea55a4bd53010bb5577393df444c0b1b29ee7551b0c98ab50c1e2b0cc",
	"SingleCoreCXL":   "6283ca46c08076be04cd82b7309c9c1f0f81d4f0028863a4e4f1d9aaa50405ae",
	"MultiCoreMixed":  "8d31d4c869df7bdc6577ea45d3123b4bed4cf3e1c64d2ed628c742cd176bc249",
	"FaultPlan":       "cd80a436c934ccf52dfe97fe42643527bee39033e0157e942b2ee5a3a5d203e9",
	"SurpriseRemoval": "e158a0981894eea6f8d46f44a69538ab536c159acc3728c55f1e922b9d04a936",
}

// TestFastpathPinnedDigests runs every golden scenario on the sweep and
// compares its digest hash against the pinned constant.
func TestFastpathPinnedDigests(t *testing.T) {
	if len(pinnedDigests) != len(goldenScenarios) {
		t.Fatalf("%d pinned digests for %d golden scenarios", len(pinnedDigests), len(goldenScenarios))
	}
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := runFastpath(t, true, sc.epochs, sc.cyc, sc.setup)
			h := sha256.New()
			for _, d := range run.digests {
				h.Write(binary.AppendUvarint(nil, uint64(len(d))))
				h.Write(d)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want, ok := pinnedDigests[sc.name]; !ok || got != want {
				t.Errorf("%s: digest hash %s, pinned %q", sc.name, got, want)
			}
		})
	}
}
