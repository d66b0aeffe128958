package chaos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pathfinder/internal/experiments"
)

// Options tunes a soak run.
type Options struct {
	Cases    int    // cases to generate and run
	BaseSeed uint64 // case i uses seed BaseSeed+i
	Cycles   uint64 // simulated cycles per case (0 = DefaultCycles)

	// Extra invariant monitors evaluated alongside the built-ins — tests
	// inject deliberately trippable monitors here to exercise the
	// shrink-and-replay pipeline end to end.
	Extra []Invariant

	// MaxShrink bounds candidate runs per finding (0 = 64).
	MaxShrink int

	// CycleBudget is the per-case supervision budget in simulated cycles
	// (0 = unlimited); a case that exceeds it is cut off and reported as a
	// deadline failure, not a finding.
	CycleBudget uint64

	// Out receives finding reports as they are confirmed (nil = discard).
	Out io.Writer
}

// Finding is one confirmed invariant violation with its minimized
// reproducer.
type Finding struct {
	Case       Case
	Violation  Violation
	Shrunk     Case
	ShrinkRuns int
}

// Report aggregates a soak run.
type Report struct {
	Cases    int
	Findings []Finding
	Tasks    *experiments.RunReport // per-case supervision outcomes
}

// Render prints the seed and full plan string of every finding — the
// contract is that anything a soak reports can be replayed verbatim.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "chaos: soaked %d cases, %d findings\n", r.Cases, len(r.Findings))
	for i := range r.Findings {
		writeFinding(w, &r.Findings[i])
	}
	if failed := r.Tasks.Failed(); len(failed) > 0 {
		fmt.Fprintf(w, "chaos: supervision: %s\n", r.Tasks.Summary())
	}
}

func writeFinding(w io.Writer, f *Finding) {
	fmt.Fprintf(w, "chaos: VIOLATION [%s] seed=%d workload=%s plan=%q\n",
		f.Violation.Invariant, f.Case.Seed, f.Case.Workload, f.Case.Plan.String())
	fmt.Fprintf(w, "chaos:   detail: %s\n", f.Violation.Detail)
	fmt.Fprintf(w, "chaos:   shrunk after %d runs: seed=%d plan=%q\n",
		f.ShrinkRuns, f.Shrunk.Seed, f.Shrunk.Plan.String())
	fmt.Fprintf(w, "chaos:   replay: pfbench -replay '%d,%s'\n",
		f.Shrunk.Seed, f.Shrunk.Plan.String())
}

// runChecked runs a case with the run-twice replay: the straight leg
// checkpoints the machine at its midpoint, and the suffix is replayed on a
// fork of the frozen image — re-simulating only half the case instead of
// all of it.  Diverging suffix digests trip the replay-divergence
// invariant (nondeterminism or a restore-equivalence break).  When the
// case cannot be checkpointed (too short, a non-forkable generator), it
// falls back to the full same-seed second run compared end to end.
func runChecked(c Case, extra []Invariant, charge func(uint64) error) (*Result, error) {
	fp := &forkProbe{}
	res, err := runCase(c, extra, charge, fp)
	if err != nil {
		return res, err
	}
	if fp.cp == nil {
		res2, err := Run(c, extra, charge)
		if err != nil {
			return res, err
		}
		if !bytes.Equal(res.Digest, res2.Digest) {
			h1, h2 := sha256.Sum256(res.Digest), sha256.Sum256(res2.Digest)
			res.Violations = append(res.Violations, Violation{
				Invariant: "replay-divergence",
				Detail: fmt.Sprintf("same-seed runs produced different PMU digests (%d vs %d bytes, sha %x vs %x)",
					len(res.Digest), len(res2.Digest), h1[:4], h2[:4]),
			})
		}
		return res, nil
	}
	if len(fp.straight) > 0 && len(fp.forked) > 0 && !bytes.Equal(fp.straight, fp.forked) {
		h1, h2 := sha256.Sum256(fp.straight), sha256.Sum256(fp.forked)
		res.Violations = append(res.Violations, Violation{
			Invariant: "replay-divergence",
			Detail: fmt.Sprintf("forked replay from the cycle-%d checkpoint diverged from the straight run (suffix digests %d vs %d bytes, sha %x vs %x)",
				fp.at, len(fp.straight), len(fp.forked), h1[:4], h2[:4]),
		})
	}
	return res, nil
}

// Soak generates opt.Cases seeded cases and runs them under the
// supervised pool: a panicking or runaway case is contained as a task
// failure while the rest of the soak proceeds.  Each violation is
// shrunk to a minimal reproducing plan and reported with its seed.
func Soak(opt Options) (*Report, error) {
	if opt.Cases <= 0 {
		opt.Cases = 1
	}
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	findings := make([][]Finding, opt.Cases)

	taskRep := experiments.Supervise(experiments.SuperviseOptions{
		Label:       "chaos-soak",
		CycleBudget: opt.CycleBudget,
	}, opt.Cases, func(i int, tc *experiments.TaskCtx) error {
		c, err := GenCase(opt.BaseSeed+uint64(i), opt.Cycles)
		if err != nil {
			return err
		}
		res, err := runChecked(c, opt.Extra, tc.Charge)
		if err != nil {
			return err
		}
		for _, v := range res.Violations {
			shrunk, runs := Shrink(c, v.Invariant, opt.MaxShrink, func(cand Case) bool {
				r, rerr := runChecked(cand, opt.Extra, nil)
				return rerr == nil && r.Violates(v.Invariant)
			})
			findings[i] = append(findings[i], Finding{
				Case: c, Violation: v, Shrunk: shrunk, ShrinkRuns: runs,
			})
		}
		return nil
	})

	rep := &Report{Cases: opt.Cases, Tasks: taskRep}
	for _, fs := range findings {
		rep.Findings = append(rep.Findings, fs...)
	}
	rep.Render(out)
	return rep, nil
}

// ParseReplaySpec splits the "seed,plan" argument of -replay at the first
// comma; the plan half is itself a comma-separated knob list.
func ParseReplaySpec(spec string) (uint64, string, error) {
	seedStr, planStr, ok := strings.Cut(spec, ",")
	if !ok {
		return 0, "", fmt.Errorf("chaos: replay spec %q is not 'seed,plan'", spec)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 0, 64)
	if err != nil {
		return 0, "", fmt.Errorf("chaos: replay seed: %v", err)
	}
	return seed, strings.TrimSpace(planStr), nil
}

// Replay re-runs a reported (seed, plan) pair and writes a deterministic
// report: the case header, every violation, and the digest hash.  Two
// replays of the same spec produce byte-identical output.
func Replay(w io.Writer, seed uint64, planStr string, cycles uint64, extra []Invariant) (*Result, error) {
	c, err := CaseFor(seed, planStr, cycles)
	if err != nil {
		return nil, err
	}
	res, err := runChecked(c, extra, nil)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "chaos: replay seed=%d workload=%s cycles=%d plan=%q\n",
		c.Seed, c.Workload, c.Cycles, c.Plan.String())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "chaos: VIOLATION [%s] seed=%d plan=%q\n", v.Invariant, c.Seed, c.Plan.String())
		fmt.Fprintf(w, "chaos:   detail: %s\n", v.Detail)
	}
	if len(res.Violations) == 0 {
		fmt.Fprintf(w, "chaos: no violations\n")
	}
	fmt.Fprintf(w, "chaos: digest sha256=%x (%d bytes)\n", sha256.Sum256(res.Digest), len(res.Digest))
	return res, nil
}
