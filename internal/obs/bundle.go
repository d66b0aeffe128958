package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// BundleSchema versions the bundle document so readers can refuse formats
// they do not understand.  Schema 2 records a latency instead of a
// completion cycle, carries the device crossings, moves seq to promoted
// records, and aggregates stages as the FlightRec.Stages partition.
const BundleSchema = 2

// Bundle is the postmortem artifact: the flight recorder's tail store and
// stats, a Prometheus text snapshot of the metrics registry, the /status
// JSON, and the active fault plan, all in one self-describing JSON file.
// Status and Aux stay raw on the read side so tools can pass them through
// without knowing their shape.
type Bundle struct {
	Schema    int             `json:"schema"`
	Trigger   string          `json:"trigger"`
	Epoch     uint64          `json:"epoch"`
	Flight    FlightSnapshot  `json:"flight"`
	Metrics   string          `json:"metrics,omitempty"`
	Status    json.RawMessage `json:"status,omitempty"`
	FaultPlan string          `json:"fault_plan,omitempty"`
	Aux       json.RawMessage `json:"aux,omitempty"`
}

// BundleOpts names the sources a bundle is assembled from; every field
// except Trigger and Flight is optional.
type BundleOpts struct {
	Trigger   string     // what fired the dump: "sigquit", "http", "chaos-violation", ...
	Flight    *Flight    // the recorder to snapshot
	Metrics   *Registry  // rendered as a Prometheus text snapshot
	Status    func() any // the same provider the /status endpoint uses
	FaultPlan string     // canonical FaultPlan string, "" when healthy
	Aux       any        // caller-specific context (chaos queue estimates, ...)
}

// DumpBundle assembles and writes a postmortem bundle.  It is safe to call
// while the simulation is running: the flight snapshot and metrics render
// take their own locks.
func DumpBundle(w io.Writer, o BundleOpts) error {
	if o.Flight == nil {
		return fmt.Errorf("obs: DumpBundle: no flight recorder attached")
	}
	b := Bundle{
		Schema:    BundleSchema,
		Trigger:   o.Trigger,
		Epoch:     o.Flight.Epoch(),
		Flight:    o.Flight.Snapshot(),
		FaultPlan: o.FaultPlan,
	}
	if o.Metrics != nil {
		var sb strings.Builder
		if err := o.Metrics.WritePrometheus(&sb); err != nil {
			return fmt.Errorf("obs: DumpBundle: metrics snapshot: %w", err)
		}
		b.Metrics = sb.String()
	}
	if o.Status != nil {
		if v := o.Status(); v != nil {
			raw, err := json.Marshal(v)
			if err != nil {
				return fmt.Errorf("obs: DumpBundle: status: %w", err)
			}
			b.Status = raw
		}
	}
	if o.Aux != nil {
		raw, err := json.Marshal(o.Aux)
		if err != nil {
			return fmt.Errorf("obs: DumpBundle: aux: %w", err)
		}
		b.Aux = raw
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&b)
}

// WriteBundleFile dumps a bundle to path, truncating any previous one.
func WriteBundleFile(path string, o BundleOpts) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := DumpBundle(f, o)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadBundle parses a bundle document.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("obs: bundle: %w", err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("obs: bundle schema %d not supported (want %d)", b.Schema, BundleSchema)
	}
	return &b, nil
}

// ReadBundleFile parses a bundle from disk.
func ReadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBundle(f)
}
