package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cerfix"
	"cerfix/internal/dataset"
	"cerfix/internal/schema"
	"cerfix/internal/textutil"
)

// validatedAttrs is the attribute set every client asserts correct:
// the /fix and job "validated" list, and the noise-protected columns
// (a validated cell is by definition not dirty).
var validatedAttrs = []string{"zip", "phn", "type", "item"}

// noiseRate is the per-cell error probability of generated inputs.
const noiseRate = 0.3

// checkpointSuffix names the checkpoint-only copy of an instance.
const checkpointSuffix = "-checkpoint"

// instanceSpec sizes one seeded CerFix instance.
type instanceSpec struct {
	// name labels the instance directory.
	name string
	// rows master rows are loaded by the daemon: the first rows-walTail
	// come from the checkpoint, the last walTail are replayed from the
	// write-ahead log a second Save appended.
	rows, walTail int
	// held entities are generated but never loaded; the open-loop
	// writer inserts them. Their keys (zip, phones) are serial-unique,
	// so no input tuple drawn from the loaded rows can match them and
	// the reference outputs stay valid while they arrive.
	held int
	// pool input tuples are drawn uniformly from the loaded entities.
	pool int
	// checkpointCopy also saves the checkpoint without its WAL tail
	// beside the instance, for the traced run's replay timing.
	checkpointCopy bool
}

// input is one generated tuple with its ground truth.
type input struct {
	dirty map[string]string
	truth map[string]string
}

// instance is a built instance: the saved directory plus the inputs
// and held-back writer rows derived from the same seed.
type instance struct {
	spec instanceSpec
	dir  string
	// sys is the system that saved dir; callers drop it once they no
	// longer need it.
	sys    *cerfix.System
	inputs []input
	// heldRows are master rows (PERSON attribute → value) for the
	// writer, in insertion order.
	heldRows []map[string]string
}

// buildInstance generates entities from seed, saves the checkpoint
// and its WAL tail under root, and derives the inputs. The same seed
// always yields byte-identical files and inputs.
func buildInstance(root string, spec instanceSpec, seed uint64) (*instance, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-%d", spec.name, seed))
	for _, d := range []string{dir, dir + checkpointSuffix} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	gen := dataset.NewCustomerGen(seed)
	entities := gen.GenerateEntities(spec.rows + spec.held)
	sys, err := cerfix.NewWithRules(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRules())
	if err != nil {
		return nil, err
	}
	add := func(es []dataset.Entity) error {
		for _, e := range es {
			vals := make([]string, len(e.Master))
			for i, v := range e.Master {
				vals[i] = string(v)
			}
			if err := sys.AddMasterRow(vals...); err != nil {
				return err
			}
		}
		return nil
	}
	// The checkpoint rows are bulk-loaded: inserting 200k rows one by
	// one, each maintaining the rule indexes, took most of a run's
	// preparation.
	ckpt := spec.rows - spec.walTail
	if err := sys.LoadMasterCSV(masterCSV(entities[:ckpt])); err != nil {
		return nil, err
	}
	// The same checkpoint without the WAL tail lets the traced run time
	// the replay as the difference of two loads. It is saved first: a
	// Save to another directory would end the WAL window of dir.
	if spec.checkpointCopy {
		if err := sys.Save(dir + checkpointSuffix); err != nil {
			return nil, err
		}
	}
	if err := sys.Save(dir); err != nil {
		return nil, err
	}
	if err := add(entities[ckpt:spec.rows]); err != nil {
		return nil, err
	}
	if err := sys.Save(dir); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.jsonl")); err != nil || fi.Size() == 0 {
		return nil, fmt.Errorf("instance %s: second save wrote no WAL tail (%v)", dir, err)
	}

	inst := &instance{spec: spec, dir: dir, sys: sys}
	personAttrs := dataset.PersonSchema().AttrNames()
	for _, e := range entities[spec.rows:] {
		row := make(map[string]string, len(personAttrs))
		for i, a := range personAttrs {
			row[a] = string(e.Master[i])
		}
		inst.heldRows = append(inst.heldRows, row)
	}
	rng := textutil.NewRNG(seed ^ 0x5eed)
	noise := dataset.NewNoise(rng.Uint64(), noiseRate)
	noise.Protected = validatedAttrs
	truths := make([]*schema.Tuple, spec.pool)
	for i := range truths {
		truths[i] = gen.CleanInput(entities[rng.Intn(spec.rows)])
	}
	for _, tr := range truths {
		dirty, _ := noise.Dirty(tr, truths)
		inst.inputs = append(inst.inputs, input{dirty: dirty.Map(), truth: tr.Map()})
	}
	return inst, nil
}

// masterCSV renders entities' master rows as a CSV with a header.
func masterCSV(es []dataset.Entity) io.Reader {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write(dataset.PersonSchema().AttrNames())
	rec := make([]string, dataset.PersonSchema().Len())
	for _, e := range es {
		for i, v := range e.Master {
			rec[i] = string(v)
		}
		_ = w.Write(rec)
	}
	w.Flush()
	return &buf
}

// writeJobCSV writes the first n inputs as a CSV file for
// server-side job submissions and returns its path.
func (in *instance) writeJobCSV(dir string, n int) (string, error) {
	attrs := dataset.CustSchema().AttrNames()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(attrs); err != nil {
		return "", err
	}
	rec := make([]string, len(attrs))
	for _, t := range in.inputs[:n] {
		for i, a := range attrs {
			rec[i] = t.dirty[a]
		}
		if err := w.Write(rec); err != nil {
			return "", err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-jobs.csv", filepath.Base(in.dir)))
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// describe is the one-line instance summary printed to stderr.
func (in *instance) describe() string {
	return fmt.Sprintf("instance %s: %d master rows (%d checkpoint + %d WAL tail), %d held back for the writer, %d inputs, noise %.2f, validated %s",
		in.spec.name, in.spec.rows, in.spec.rows-in.spec.walTail, in.spec.walTail, in.spec.held,
		len(in.inputs), noiseRate, strings.Join(validatedAttrs, ","))
}
