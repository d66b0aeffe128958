package perf

import "testing"

// FuzzParseSpec feeds arbitrary event specs to the parser: it must return
// a spec or an error, never panic, and Spec.String must print every spec
// it accepts in a form that parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	f.Add("core0/mem_load_retired.l1_hit/")
	f.Add("cha*/unc_cha_tor_inserts.ia_drd.miss_cxl")
	f.Add("cxl0/unc_cxlcm_rxc_pack_buf_inserts.mem_req/")
	f.Add("a/b//")
	f.Add("/x/")
	f.Add("junk")
	f.Fuzz(func(t *testing.T, raw string) {
		sp, err := ParseSpec(raw)
		if err != nil {
			return
		}
		if sp.Pattern == "" || sp.Event == "" {
			t.Fatalf("ParseSpec(%q) accepted an empty part: %+v", raw, sp)
		}
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("String %q of ParseSpec(%q) does not parse: %v", sp.String(), raw, err)
		}
		if again != sp {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", raw, sp, sp.String(), again)
		}
	})
}
