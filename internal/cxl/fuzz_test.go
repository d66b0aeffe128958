package cxl

import "testing"

// FuzzParseFaultPlan checks the CLI fault-plan grammar never panics, only
// returns validated plans, and that String is a canonical form: whatever
// parses must re-parse from its own String, and that canonical string is a
// fixpoint (printing and re-parsing it changes nothing).  Every failure
// report in the chaos subsystem leans on this round-trip.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add("seed=42,crc=1e-3")
	f.Add("burst=500:100:0.3:1000,timeout=0:10,poison=0x1000:256")
	f.Add("crc-m2s=0.5,crc-s2m=1,throttle=5:5:20,timeout-penalty=9")
	f.Add("seed=7,poison=4096:128,viral=3:50000,remove=200000:8000")
	f.Add("viral=1,remove=1")
	f.Add("healthy")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaultPlan(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseFaultPlan(%q) returned invalid plan: %v", s, err)
		}
		canon := p.String()
		q, err := ParseFaultPlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if again := q.String(); again != canon {
			t.Fatalf("String not a fixpoint: %q -> %q -> %q", s, canon, again)
		}
	})
}
