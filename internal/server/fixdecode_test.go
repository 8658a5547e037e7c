package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cerfix/internal/dataset"
	"cerfix/internal/schema"
)

// fixBodies is the differential table of POST /fix bodies: plain ones
// the schema-position decoder takes (fast), and malformed or exotic
// ones it must hand to encoding/json untouched.
var fixBodies = []struct {
	name string
	body string
	fast bool
}{
	{"fig3", string(fixPayloadFig3), true},
	{"two tuples", `{"validated":["zip","phn","type","item"],"tuples":[{"FN":"M.","LN":"Smith","AC":"131","phn":"075568485","type":"2","str":"20 Baker St","city":"Lon","zip":"NW1 6XE","item":"CD"},{"FN":"Bob","zip":"EH7 4AH","phn":"079172485","type":"2","item":"CD"}]}`, true},
	{"whitespace", " \t\r\n{ \"validated\" :\n[ \"zip\" , \"phn\" ] ,\r\n\"tuples\" : [ { \"zip\" : \"NW1 6XE\" ,\t\"phn\" : \"075568485\" } ] } \n", true},
	{"tuples first", `{"tuples":[{"zip":"NW1 6XE"}],"validated":["zip"]}`, true},
	{"empty tuple", `{"validated":["zip"],"tuples":[{}]}`, true},
	{"empty value", `{"validated":["zip"],"tuples":[{"zip":"","FN":""}]}`, true},
	{"unicode values", `{"validated":["zip"],"tuples":[{"zip":"é漢🚀","FN":"  ","LN":"�","city":"a` + " \x7f" + `b"}]}`, true},
	{"html-ish values", `{"validated":["zip"],"tuples":[{"zip":"<tag>","FN":"a&b"}]}`, true},
	{"unknown validated attribute", `{"validated":["nope"],"tuples":[{"zip":"x"}]}`, true},
	{"no tuples", `{"validated":["zip"],"tuples":[]}`, true},
	{"empty validated", `{"validated":[],"tuples":[{"zip":"x"}]}`, true},
	{"missing validated", `{"tuples":[{"zip":"x"}]}`, true},
	{"missing tuples", `{"validated":["zip"]}`, true},
	{"empty object", `{}`, true},

	{"escaped value", `{"validated":["zip"],"tuples":[{"zip":"a\"b\\c\né"}]}`, false},
	{"escaped key", `{"validated":["zip"],"tuples":[{"z\u0069p":"x"}]}`, false},
	{"escaped validated", `{"validated":["z\u0069p"],"tuples":[{"zip":"x"}]}`, false},
	{"escaped top-level key", `{"valid\u0061ted":["zip"],"tuples":[{"zip":"x"}]}`, false},
	{"case-folded keys", `{"Validated":["zip"],"TUPLES":[{"zip":"x"}]}`, false},
	{"unknown top-level key", `{"validated":["zip"],"tuples":[{"zip":"x"}],"extra":1}`, false},
	{"unknown tuple attribute", `{"validated":["zip"],"tuples":[{"zip":"x"},{"nope":"y"}]}`, false},
	{"duplicate tuple key", `{"validated":["zip"],"tuples":[{"zip":"x","zip":"y"}]}`, false},
	{"duplicate validated", `{"validated":["FN"],"validated":["zip"],"tuples":[{"zip":"x"}]}`, false},
	{"duplicate tuples", `{"validated":["zip"],"tuples":[{"zip":"x","FN":"a"}],"tuples":[{"zip":"y"}]}`, false},
	{"null validated", `{"validated":null,"tuples":[{"zip":"x"}]}`, false},
	{"null tuples", `{"validated":["zip"],"tuples":null}`, false},
	{"null tuple", `{"validated":["zip"],"tuples":[null]}`, false},
	{"null value", `{"validated":["zip"],"tuples":[{"zip":null,"FN":"a"}]}`, false},
	{"number value", `{"validated":["zip"],"tuples":[{"zip":1}]}`, false},
	{"bool value", `{"validated":["zip"],"tuples":[{"zip":true}]}`, false},
	{"object value", `{"validated":["zip"],"tuples":[{"zip":{}}]}`, false},
	{"number validated", `{"validated":[1],"tuples":[{"zip":"x"}]}`, false},
	{"tuples not an array", `{"validated":["zip"],"tuples":{"zip":"x"}}`, false},
	{"trailing garbage", `{"validated":["zip"],"tuples":[{"zip":"x"}]} trailing`, false},
	{"two values", `{"validated":["zip"],"tuples":[{"zip":"x"}]}{"validated":[]}`, false},
	{"trailing comma", `{"validated":["zip",],"tuples":[{"zip":"x"}]}`, false},
	{"trailing comma in object", `{"validated":["zip"],"tuples":[{"zip":"x",}]}`, false},
	{"unterminated", `{"validated":["zip"],"tuples":[{"zip":"x"}]`, false},
	{"unterminated string", `{"validated":["zip"],"tuples":[{"zip":"x`, false},
	{"invalid utf-8", "{\"validated\":[\"zip\"],\"tuples\":[{\"zip\":\"a\xffb\"}]}", false},
	{"control byte", "{\"validated\":[\"zip\"],\"tuples\":[{\"zip\":\"a\x01b\"}]}", false},
	{"byte order mark", "\xef\xbb\xbf{\"validated\":[\"zip\"],\"tuples\":[{\"zip\":\"x\"}]}", false},
	{"empty body", ``, false},
	{"whitespace body", "  \n", false},
	{"open brace", `{`, false},
	{"array body", `[]`, false},
	{"null body", `null`, false},
	{"string body", `"fix"`, false},
}

// fixPayloadFig3 is the demo Fig. 3 fix, as the daemon's docs post it.
var fixPayloadFig3 = []byte(`{"validated":["zip","phn","type","item"],"tuples":[{"FN":"M.","LN":"Smith","AC":"131","phn":"075568485","type":"2","str":"20 Baker St","city":"Lon","zip":"NW1 6XE","item":"CD"}]}`)

// legacyFixDecode is the reference decode: decodeBody's encoding/json
// into batchRequest, then tupleFromMap per tuple. It returns the
// decode error, or the validated names plus either the tuples or the
// conversion error the handler would report.
func legacyFixDecode(sch *schema.Schema, body io.Reader) (validated []string, tuples []*schema.Tuple, decodeErr, tupleErr error) {
	var br batchRequest
	if err := decodeJSON(body, &br); err != nil {
		return nil, nil, err, nil
	}
	req := fixRequest{validated: br.Validated, maps: br.Tuples}
	tuples, tupleErr = req.inputTuples(sch)
	return br.Validated, tuples, nil, tupleErr
}

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// tupleErrText is errText for tuple conversion errors, without the
// attribute an unknown-attribute error names: tupleFromMap reports the
// first unknown key in map iteration order, which is random when a
// tuple has several.
func tupleErrText(err error) string {
	s := errText(err)
	if i := strings.Index(s, "unknown attribute "); i >= 0 {
		return s[:i]
	}
	return s
}

// checkFixDecodeParity compares decodeFixRequest on body against the
// reference decode, reporting the first difference.
func checkFixDecodeParity(t *testing.T, sch *schema.Schema, body []byte, maxBody int64) {
	t.Helper()
	var ref io.Reader = bytes.NewReader(body)
	if maxBody > 0 {
		ref = http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(ref), maxBody)
	}
	wantV, wantT, wantDecErr, wantTupErr := legacyFixDecode(sch, ref)

	r := httptest.NewRequest("POST", "/api/v1/fix", bytes.NewReader(body))
	if maxBody > 0 {
		r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, maxBody)
	}
	req, err := decodeFixRequest(r, sch, maxBody)
	if errText(err) != errText(wantDecErr) {
		t.Fatalf("body %q: decode error %q, want %q", body, errText(err), errText(wantDecErr))
	}
	if err != nil {
		return
	}
	if len(req.validated) != len(wantV) {
		t.Fatalf("body %q: validated %q, want %q", body, req.validated, wantV)
	}
	for i := range wantV {
		if req.validated[i] != wantV[i] {
			t.Fatalf("body %q: validated %q, want %q", body, req.validated, wantV)
		}
	}
	if req.count() != len(wantT) && wantTupErr == nil {
		t.Fatalf("body %q: %d tuples, want %d", body, req.count(), len(wantT))
	}
	got, gotErr := req.inputTuples(sch)
	if tupleErrText(gotErr) != tupleErrText(wantTupErr) {
		t.Fatalf("body %q: tuple error %q, want %q", body, errText(gotErr), errText(wantTupErr))
	}
	for i := range wantT {
		if got[i].Schema != sch || got[i].ID != wantT[i].ID || !got[i].Vals.Equal(wantT[i].Vals) {
			t.Fatalf("body %q: tuple %d = %v, want %v", body, i, got[i].Vals, wantT[i].Vals)
		}
	}
}

// TestFixDecodeMatchesLegacy is the decode-layer differential over the
// table: identical decode errors, validated names and tuples (or tuple
// conversion errors), and the fast path taken exactly on the plain
// bodies.
func TestFixDecodeMatchesLegacy(t *testing.T) {
	sch := dataset.CustSchema()
	for _, tc := range fixBodies {
		checkFixDecodeParity(t, sch, []byte(tc.body), 0)
		var req fixRequest
		if fast := new(fixDecoder).parse([]byte(tc.body), sch, &req); fast != tc.fast {
			t.Errorf("%s: fast path taken = %v, want %v", tc.name, fast, tc.fast)
		}
	}
}

// TestFixResponsesMatchLegacyPath is the end-to-end differential: each
// table body is posted once eligible for the fast decoder (declared
// length) and once through the encoding/json path alone (undeclared
// length), to one handler, and must answer the same status and the
// same bytes — fix results or error envelope. With a body cap, an
// over-cap body must answer 413 either way, and one whose syntax error
// comes before the cap its 400.
func TestFixResponsesMatchLegacyPath(t *testing.T) {
	srv := New(demoSys(t))
	h := srv.Handler()
	capped := New(demoSys(t))
	capped.SetLimits(Limits{MaxBody: 1024})
	hc := capped.Handler()

	post := func(h http.Handler, body []byte, declared bool) (int, string) {
		var rd io.Reader = bytes.NewReader(body)
		if !declared {
			rd = io.MultiReader(rd) // hides the length: ContentLength -1
		}
		r := httptest.NewRequest("POST", "/api/v1/fix", rd)
		r.Header.Set("X-Request-Id", "diff")
		if declared != (r.ContentLength >= 0) {
			t.Fatalf("declared = %v but ContentLength = %d", declared, r.ContentLength)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code, rec.Body.String()
	}
	check := func(h http.Handler, name string, body []byte, wantStatus int) {
		t.Helper()
		gotStatus, got := post(h, body, true)
		refStatus, ref := post(h, body, false)
		if gotStatus != refStatus || got != ref {
			t.Fatalf("%s: fast path answered %d %s\nencoding/json path answered %d %s", name, gotStatus, got, refStatus, ref)
		}
		if wantStatus != 0 && gotStatus != wantStatus {
			t.Fatalf("%s: status %d, want %d: %s", name, gotStatus, wantStatus, got)
		}
	}
	statuses := map[int]int{}
	for _, tc := range fixBodies {
		check(h, tc.name, []byte(tc.body), 0)
		st, _ := post(h, []byte(tc.body), true)
		statuses[st]++
	}
	// The table must exercise every answer class of the endpoint.
	for _, st := range []int{200, 400, 422} {
		if statuses[st] == 0 {
			t.Errorf("no table body answered %d", st)
		}
	}

	big := `{"validated":["zip"],"tuples":[{"zip":"` + strings.Repeat("9", 4096) + `"}]}`
	check(hc, "over the cap", []byte(big), http.StatusRequestEntityTooLarge)
	check(hc, "syntax error ahead of the cap", []byte(`{"validated":[!`+big), http.StatusBadRequest)
	check(hc, "within the cap", fixPayloadFig3, http.StatusOK)
}

// FuzzFixRequestDecode is the coverage-guided differential of the POST
// /fix decoder: on any body the schema-position fast path must agree
// with decodeBody + tupleFromMap — same decode error, or same
// validated names and same tuples (or tuple conversion error) — with
// and without a body cap. Seeds: the differential table plus
// testdata/fuzz/FuzzFixRequestDecode.
func FuzzFixRequestDecode(f *testing.F) {
	for _, tc := range fixBodies {
		f.Add([]byte(tc.body))
	}
	sch := dataset.CustSchema()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFixDecodeParity(t, sch, body, 0)
		checkFixDecodeParity(t, sch, body, 64)
	})
}

// TestConcurrentFixesShareNoBuffers posts distinct point and batch
// fixes from several goroutines at once and demands each answer equal
// the one it got alone: the pooled request scratch, pipeline arenas and
// response buffers, and the shared result encoder, must never carry
// one request's bytes into another's (run under -race in CI).
func TestConcurrentFixesShareNoBuffers(t *testing.T) {
	h := New(demoSys(t)).Handler()
	base := dataset.DemoInputFig3().Map()
	var bodies [][]byte
	for i := 0; i < 24; i++ {
		n := 1
		if i%6 == 5 {
			n = 20 // past one chunk: the staged path shares the pools too
		}
		var tuples []string
		for j := 0; j < n; j++ {
			tu := ""
			for k, v := range base {
				if k == "city" {
					v = fmt.Sprintf("city-%d-%d", i, j)
				}
				if tu != "" {
					tu += ","
				}
				tu += fmt.Sprintf("%q:%q", k, v)
			}
			tuples = append(tuples, "{"+tu+"}")
		}
		bodies = append(bodies, []byte(`{"validated":["zip","phn","type","item"],"tuples":[`+strings.Join(tuples, ",")+`]}`))
	}
	serve := func(body []byte) string {
		r := httptest.NewRequest("POST", "/api/v1/fix", bytes.NewReader(body))
		r.Header.Set("X-Request-Id", "conc")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return fmt.Sprint(rec.Code, " ", rec.Body.String())
	}
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = serve(b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range bodies {
					k := (i*7 + g*5 + round) % len(bodies)
					if got := serve(bodies[k]); got != want[k] {
						t.Errorf("body %d answered differently under concurrency:\n got %s\nwant %s", k, got, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
