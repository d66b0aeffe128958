package chaos

import (
	"fmt"
	"testing"
)

// FuzzParseReplaySpec feeds arbitrary -replay specs to the parser and on to
// CaseFor, which parses the plan: both must return an error, never panic.
// A spec that yields a case must survive the round trip through the form a
// soak report prints ("seed,plan" with the plan's canonical String).
func FuzzParseReplaySpec(f *testing.F) {
	f.Add("42,seed=42,crc-m2s=0.01")
	f.Add("7,healthy")
	f.Add("0x10, seed=3,burst=500:100:0.3:1000,viral=2:900")
	f.Add("noseed")
	f.Add("x,plan")
	f.Add("18446744073709551615,remove=1")
	f.Fuzz(func(t *testing.T, spec string) {
		seed, plan, err := ParseReplaySpec(spec)
		if err != nil {
			return
		}
		c, err := CaseFor(seed, plan, 0)
		if err != nil {
			return
		}
		printed := fmt.Sprintf("%d,%s", c.Seed, c.Plan.String())
		seed2, plan2, err := ParseReplaySpec(printed)
		if err != nil {
			t.Fatalf("printed spec %q of %q does not parse: %v", printed, spec, err)
		}
		c2, err := CaseFor(seed2, plan2, 0)
		if err != nil {
			t.Fatalf("printed spec %q of %q yields no case: %v", printed, spec, err)
		}
		if c2.Seed != c.Seed || c2.Workload != c.Workload || c2.Plan.String() != c.Plan.String() {
			t.Fatalf("round trip %q -> %q changed the case: %+v vs %+v", spec, printed, c, c2)
		}
	})
}
