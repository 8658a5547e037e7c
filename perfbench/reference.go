package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"cerfix"
	"cerfix/internal/core"
	"cerfix/internal/jobs"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// reference holds the expected bytes of every measured answer,
// computed in-process with the public functions the daemon serves
// them with (pipeline.Run plus jobs.ResultEncoder). Served runs compute
// it on the system that saved the instance, so a daemon answer only
// matches if cerfixd's Load rebuilt that system exactly; the traced
// run computes it on its own cerfix.Load of the instance.
type reference struct {
	// fixBody[i] is the POST /fix request for inputs[i]; fixWant[i] is
	// the exact response body.
	fixBody, fixWant [][]byte
	// jobTuples are the tuples of every job; jobWant is the exact
	// results.jsonl artifact.
	jobTuples []map[string]string
	jobWant   []byte
}

type fixRequest struct {
	Validated []string            `json:"validated"`
	Tuples    []map[string]string `json:"tuples"`
}

// buildReference renders, over sys (holding inst's data), the
// expected /fix responses for the first nFix inputs and the expected
// job artifact for the first nJob inputs.
func buildReference(sys *cerfix.System, inst *instance, nFix, nJob int) (*reference, error) {
	var err error
	eng := sys.SnapshotEngine()
	ref := &reference{}
	for _, in := range inst.inputs[:nFix] {
		body, err := json.Marshal(fixRequest{Validated: validatedAttrs, Tuples: []map[string]string{in.dirty}})
		if err != nil {
			return nil, err
		}
		tu, err := schema.TupleFromMap(sys.InputSchema(), in.dirty)
		if err != nil {
			return nil, err
		}
		want, err := fixResponse(eng, sys.InputSchema(), []*schema.Tuple{tu})
		if err != nil {
			return nil, err
		}
		ref.fixBody = append(ref.fixBody, body)
		ref.fixWant = append(ref.fixWant, want)
	}
	tuples := make([]*schema.Tuple, nJob)
	for i, in := range inst.inputs[:nJob] {
		ref.jobTuples = append(ref.jobTuples, in.dirty)
		if tuples[i], err = schema.TupleFromMap(sys.InputSchema(), in.dirty); err != nil {
			return nil, err
		}
	}
	ref.jobWant, err = artifact(eng, sys.InputSchema(), pipeline.NewSliceSource(tuples))
	return ref, err
}

// fixResponse renders the POST /api/v1/fix answer for tuples: the
// results array through jobs.ResultEncoder plus the two pipeline
// totals, in the daemon's documented wire shape.
func fixResponse(eng *core.Engine, sch *schema.Schema, tuples []*schema.Tuple) ([]byte, error) {
	enc := jobs.NewResultEncoder(sch)
	buf := []byte(`{"results":[`)
	sink := pipeline.SinkFunc(func(r *pipeline.Result) error {
		if buf[len(buf)-1] != '[' {
			buf = append(buf, ',')
		}
		buf = enc.Append(buf, r)
		return nil
	})
	st, err := pipeline.Run(context.Background(), eng, schema.SetOfNames(sch, validatedAttrs...), pipeline.NewSliceSource(tuples), sink, nil)
	if err != nil {
		return nil, fmt.Errorf("reference fix: %w", err)
	}
	buf = append(buf, `],"fully_validated":`...)
	buf = strconv.AppendInt(buf, int64(st.FullyValidated), 10)
	buf = append(buf, `,"cells_rewritten":`...)
	buf = strconv.AppendInt(buf, int64(st.CellsRewritten), 10)
	return append(buf, "}\n"...), nil
}

// artifact renders a job's results.jsonl for the tuples of src.
func artifact(eng *core.Engine, sch *schema.Schema, src pipeline.Source) ([]byte, error) {
	enc := jobs.NewResultEncoder(sch)
	var buf []byte
	sink := pipeline.SinkFunc(func(r *pipeline.Result) error {
		buf = append(enc.Append(buf, r), '\n')
		return nil
	})
	if _, err := pipeline.Run(context.Background(), eng, schema.SetOfNames(sch, validatedAttrs...), src, sink, nil); err != nil {
		return nil, fmt.Errorf("reference artifact: %w", err)
	}
	return buf, nil
}
