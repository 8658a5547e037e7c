package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unicode/utf8"
	"unsafe"

	"cerfix/internal/schema"
	"cerfix/internal/simd"
	"cerfix/internal/value"
)

// This file decodes POST /fix bodies. The common body —
// {"validated":[...],"tuples":[{...}]} with plain string values — is
// parsed straight into tuples of the input schema, with one backing
// string for every value of the request; anything else goes through
// decodeBody and tupleFromMap, which stay authoritative for every
// status, error code and message.

// fixRequest is a decoded POST /fix body: the validated attribute
// names plus the tuples, either already in schema positions (fast
// path: tuples non-nil) or as encoding/json maps still to be converted
// (fallback).
type fixRequest struct {
	validated []string
	tuples    []*schema.Tuple
	maps      []map[string]string
}

// count is the number of input tuples.
func (q *fixRequest) count() int { return len(q.tuples) + len(q.maps) }

// inputTuples returns the tuples in schema positions, converting the
// fallback's maps with tupleFromMap (its errors name the tuple).
func (q *fixRequest) inputTuples(sch *schema.Schema) ([]*schema.Tuple, error) {
	if q.tuples != nil {
		return q.tuples, nil
	}
	tuples := make([]*schema.Tuple, len(q.maps))
	for i, tm := range q.maps {
		tu, err := tupleFromMap(sch, tm)
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
		tuples[i] = tu
	}
	return tuples, nil
}

// fixDecoder is the fast path's reusable scratch.
type fixDecoder struct {
	body  []byte     // the request body
	vals  []byte     // every decoded value, back to back
	spans []valueRef // per tuple × attribute: the value's bytes in vals
}

// valueRef locates one value in fixDecoder.vals; start < 0 means the
// attribute is absent (null).
type valueRef struct{ start, end int }

var fixDecoders = sync.Pool{New: func() any { return new(fixDecoder) }}

// maxPooledBuf bounds the bytes a pooled buffer may hold on to across
// requests; a larger one is left to the collector.
const maxPooledBuf = 1 << 20

// decodeFixRequest reads and decodes a POST /fix body. Errors are
// decodeBody's, for writeDecodeErr.
//
// The fast path reads the whole body, so it runs only when the body's
// length is declared and within the -max-body cap: the cap then cannot
// trip mid-read, and an oversized body reaches decodeBody exactly as
// before (413, or the 400 of a syntax error ahead of the cap). Once
// read, a body the fast parser declines is replayed — bytes and read
// error alike — into decodeBody, whose result depends only on those.
func decodeFixRequest(r *http.Request, sch *schema.Schema, maxBody int64) (fixRequest, error) {
	var req fixRequest
	if r.Body == nil || r.ContentLength < 0 || (maxBody > 0 && r.ContentLength > maxBody) {
		return req, decodeFixFallback(r.Body, &req)
	}
	d := fixDecoders.Get().(*fixDecoder)
	defer func() {
		if cap(d.body)+cap(d.vals)+cap(d.spans)*int(unsafe.Sizeof(valueRef{})) <= maxPooledBuf {
			fixDecoders.Put(d)
		}
	}()
	body, readErr := readBody(r.Body, d.body[:0], r.ContentLength)
	d.body = body
	if readErr == nil && d.parse(body, sch, &req) {
		return req, nil
	}
	req = fixRequest{}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	return req, decodeFixFallback(src, &req)
}

// decodeFixFallback is the encoding/json decode of a POST /fix body.
func decodeFixFallback(body io.Reader, req *fixRequest) error {
	var br batchRequest
	if err := decodeJSON(body, &br); err != nil {
		return err
	}
	req.validated = br.Validated
	req.maps = br.Tuples
	return nil
}

// readBody appends r's bytes to buf up to EOF; sizeHint (the declared
// length) presizes buf, never past 64 KiB on the header's word alone.
func readBody(r io.Reader, buf []byte, sizeHint int64) ([]byte, error) {
	if want := int(min(sizeHint, 64<<10)) + 1; cap(buf) < want {
		buf = make([]byte, 0, max(want, 512))
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parse decodes the plain shape of a POST /fix body into req,
// reporting false — deciding nothing — whenever data strays from it:
// a key other than exactly "validated" or "tuples" (encoding/json
// would match case-insensitively), a repeated key, a tuple key outside
// the schema, a non-string value, null, an escape, a control byte,
// invalid UTF-8, or bytes after the object.
func (d *fixDecoder) parse(data []byte, sch *schema.Schema, req *fixRequest) bool {
	d.vals = d.vals[:0]
	d.spans = d.spans[:0]
	arity := sch.Len()
	var validated []string
	p, n := 0, len(data)
	ws := func() {
		for p < n && (data[p] == ' ' || data[p] == '\t' || data[p] == '\n' || data[p] == '\r') {
			p++
		}
	}
	// str scans the plain string opening at p, leaving p past its
	// closing quote and returning its content.
	str := func() ([]byte, bool) {
		if p >= n || data[p] != '"' {
			return nil, false
		}
		start := p + 1
		end, ok := plainString(data, start)
		if !ok {
			return nil, false
		}
		p = end + 1
		return data[start:end], true
	}
	// list parses a JSON array, calling elem at each element.
	list := func(elem func() bool) bool {
		if p >= n || data[p] != '[' {
			return false
		}
		p++
		ws()
		if p < n && data[p] == ']' {
			p++
			return true
		}
		for {
			ws()
			if !elem() {
				return false
			}
			ws()
			if p >= n {
				return false
			}
			switch data[p] {
			case ',':
				p++
			case ']':
				p++
				return true
			default:
				return false
			}
		}
	}
	// object parses a JSON object, calling member after each key and
	// its colon.
	object := func(member func(key []byte) bool) bool {
		if p >= n || data[p] != '{' {
			return false
		}
		p++
		ws()
		if p < n && data[p] == '}' {
			p++
			return true
		}
		for {
			ws()
			key, ok := str()
			if !ok {
				return false
			}
			ws()
			if p >= n || data[p] != ':' {
				return false
			}
			p++
			ws()
			if !member(key) {
				return false
			}
			ws()
			if p >= n {
				return false
			}
			switch data[p] {
			case ',':
				p++
			case '}':
				p++
				return true
			default:
				return false
			}
		}
	}
	name := func() bool {
		s, ok := str()
		if !ok {
			return false
		}
		if i, known := sch.Index(string(s)); known {
			validated = append(validated, sch.Attr(i).Name) // no copy
		} else {
			validated = append(validated, string(s)) // rejected later
		}
		return true
	}
	var row []valueRef
	cell := func(key []byte) bool {
		i, known := sch.Index(string(key))
		if !known || row[i].start >= 0 {
			return false // unknown or repeated attribute
		}
		v, ok := str()
		if !ok {
			return false
		}
		start := len(d.vals)
		d.vals = append(d.vals, v...)
		row[i] = valueRef{start, len(d.vals)}
		return true
	}
	tuple := func() bool {
		base := len(d.spans)
		for range arity {
			d.spans = append(d.spans, valueRef{-1, -1})
		}
		row = d.spans[base:]
		return object(cell)
	}
	var seenValidated, seenTuples bool
	ws()
	if !object(func(key []byte) bool {
		switch {
		case string(key) == "validated" && !seenValidated:
			seenValidated = true
			validated = make([]string, 0, arity)
			return list(name)
		case string(key) == "tuples" && !seenTuples:
			seenTuples = true
			return list(tuple)
		}
		return false
	}) {
		return false
	}
	ws()
	if p != n {
		return false // trailing bytes: encoding/json decides
	}

	count := 0
	if arity > 0 {
		count = len(d.spans) / arity
	}
	backing := string(d.vals)
	vals := make(value.List, count*arity)
	ts := make([]schema.Tuple, count)
	tuples := make([]*schema.Tuple, count)
	for i := range ts {
		rowVals := vals[i*arity : (i+1)*arity : (i+1)*arity]
		for j, sp := range d.spans[i*arity : (i+1)*arity] {
			if sp.start >= 0 {
				rowVals[j] = value.V(backing[sp.start:sp.end])
			}
		}
		ts[i] = schema.Tuple{Schema: sch, Vals: rowVals}
		tuples[i] = &ts[i]
	}
	req.validated = validated
	req.tuples = tuples
	return true
}

// plainString scans the body of a JSON string starting at data[p],
// just past its opening quote, and returns the offset of the closing
// quote. ok is false unless the string is plain — no escape, no
// control byte, valid UTF-8 — which is exactly when its raw bytes are
// its decoded value.
func plainString(data []byte, p int) (end int, ok bool) {
	for {
		rel := simd.ScanJSON(data[p:])
		if rel < 0 {
			return 0, false // unterminated
		}
		p += rel
		c := data[p]
		if c == '"' {
			return p, true
		}
		if c == '\\' || c < 0x20 {
			return 0, false
		}
		r, size := utf8.DecodeRune(data[p:])
		if r == utf8.RuneError && size == 1 {
			return 0, false // encoding/json would coerce to U+FFFD
		}
		p += size
	}
}
