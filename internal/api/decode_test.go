package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// suspectBodies are the body types DecodeBody decodes itself.
var suspectBodies = []struct {
	name string
	new  func() any
}{
	{"JobRequest", func() any { return new(JobRequest) }},
	{"BatchVerifyRequest", func() any { return new(BatchVerifyRequest) }},
	{"VerifyRequest", func() any { return new(VerifyRequest) }},
	{"WatermarkRequest", func() any { return new(WatermarkRequest) }},
}

// decodeCases are bodies at the edges of encoding/json's behaviour:
// the differential table test and the fuzz seed corpus.
var decodeCases = []string{
	// The shapes the service and the SDK send.
	`{"kind":"verify_batch","verify_batch":{"records":["a","b"],"schema":"k:int!key","format":"jsonl","data":"{\"k\":1}\n{\"k\":2}\n"}}`,
	`{"kind":"watermark","watermark":{"schema":"s","data":"k,v\n1,2\n","secret":"x","attribute":"v","wm":"101","e":7,"domain":["2"]}}`,
	`{"schema":"s","data":"k,v\n1,2\n","records":["r"],"workers":3}`,
	`{"id":"abc","schema":"s","format":"csv","data":"a,b\r\n"}`,
	`{"record":{"secret":"s","attribute":"a","wm":"1","e":1,"data":"inner"},"data":"outer"}`,
	// Keys match case-insensitively, may be escaped, and fold as
	// encoding/json folds (U+212A KELVIN SIGN folds to K).
	`{"KIND":"verify_batch","Verify_Batch":{"DATA":"x","Schema":"s"}}`,
	`{"verify_batch":{"d\u0061ta":"x"},"v\u0065rify_batch":{"schema":"y"}}`,
	`{"watermar\u212a":{"data":"kelvin"}}`,
	"{\"watermar\xe2\x84\xaa\":{\"DaTa\":\"kelvin raw\"}}",
	`{"\u0064\u0061\u0074\u0061":"all escaped"}`,
	`{"dat":"near","datas":"miss","data ":"space","data":"hit"}`,
	// Duplicate keys: the last one wins, a second payload object merges
	// into the first, and null resets the payload pointer.
	`{"data":"first","data":"second"}`,
	`{"data":"kept","data":null}`,
	`{"verify_batch":{"data":"a","schema":"s1"},"verify_batch":{"schema":"s2"}}`,
	`{"verify_batch":{"data":"a"},"verify_batch":null}`,
	`{"verify_batch":null,"verify_batch":{"data":"b"}}`,
	`{"watermark":{"data":"w"},"verify_batch":{"data":"v"},"data":"top"}`,
	`{"verify_batch":{"data":"1"},"watermark":{"data":"0"}}`,
	// null and non-string data.
	`{"data":null}`,
	`{"data":1}`,
	`{"data":["x"]}`,
	`{"data":{"data":"x"}}`,
	`{"data":true}`,
	`{"verify_batch":"x"}`,
	`{"verify_batch":[{"data":"x"}]}`,
	`{"data":""}`,
	// Escapes, invalid UTF-8 and surrogates.
	`{"data":"\u003cb\u003e \u0026 \"q\" \\ \/ \b\f\n\r\t"}`,
	"{\"data\":\"caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80\"}",
	"{\"data\":\"a\xffb\"}",
	"{\"data\":\"\xff\xfe\xfd\xfc\xfb\xfa\"}",
	"{\"data\":\"\\u0041\xff\xff\xff\"}",
	"{\"data\":\"\xed\xa0\x80\xc0\xaf\xf4\x90\x80\x80\"}",
	"{\"data\":\"\xe6\x97\"}",
	`{"data":"\ud800"}`,
	`{"data":"\udc00x"}`,
	`{"data":"\ud800\u0041"}`,
	`{"data":"\ud83d\ude00"}`,
	`{"data":"\ud800\ud800\udc00"}`,
	`{"data":"\uD83D\uDE00\uDBFF\uDFFF"}`,
	`{"data":"\ud800\\"}`,
	// One value, trailing whitespace only.
	` {"data":"x"} ` + "\r\n\t",
	`{"data":"x"}x`,
	`{"data":"x"}{}`,
	`{"data":"x"},`,
	``,
	` `,
	`null`,
	`[]`,
	`"str"`,
	`12`,
	`{`,
	`{"data":"x"`,
	`{"data":"x`,
	`{"data":"x\`,
	`{"data":"\u12"}`,
	`{"data":"\u12g4"}`,
	"{\"data\":\"\x01\"}",
	`{"data":"\'"}`,
	`{"data":"\x"}`,
	`{"data" "x"}`,
	`{"data":"x",}`,
	`{,"data":"x"}`,
	`{"a":[1,]}`,
	`{"a":[1 2]}`,
	`{"a":tru}`,
	`{"a":nul}`,
	`{"a":falsey}`,
	// Numbers and field types.
	`{"workers":1.5}`,
	`{"workers":-0,"e":100}`,
	`{"e":1e2}`,
	`{"workers":01}`,
	`{"workers":-}`,
	`{"workers":1.}`,
	`{"workers":1e}`,
	`{"workers":1E+2}`,
	`{"workers":"3"}`,
	`{"records":"a"}`,
	`{"domain":["a",null,"b"]}`,
	`{"frequency_channel":true,"max_alteration_fraction":0.25}`,
	// Nesting at encoding/json's depth limit and one past it.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"data":"deep"}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"data":"deep"}`,
}

// checkDecodeParity decodes body with DecodeBody and with json.Unmarshal
// into every suspect body type, each on its own copy, and fails unless
// both accept or both reject, and accepted bodies decode equal.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	for _, typ := range suspectBodies {
		want, got := typ.new(), typ.new()
		wantErr := json.Unmarshal(bytes.Clone(body), want)
		gotErr := DecodeBody(bytes.Clone(body), got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: body %q: DecodeBody error %v, json.Unmarshal error %v", typ.name, body, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: body %q:\n got %+v\nwant %+v", typ.name, body, deref(got), deref(want))
		}
	}
}

func deref(v any) any {
	switch v := v.(type) {
	case *JobRequest:
		return fmt.Sprintf("%+v watermark=%+v verify_batch=%+v", *v, v.Watermark, v.VerifyBatch)
	}
	return reflect.ValueOf(v).Elem().Interface()
}

func TestDecodeBodyMatchesUnmarshal(t *testing.T) {
	for _, c := range decodeCases {
		checkDecodeParity(t, []byte(c))
	}
}

// TestDecodeBodyInPlace pins where the suspect bytes live: a data
// string is unescaped inside the body buffer, except when raw invalid
// UTF-8 grows it past the bytes already read.
func TestDecodeBodyInPlace(t *testing.T) {
	for _, tc := range []struct {
		body    string
		data    string
		inPlace bool
	}{
		{`{"data":"plain rows"}`, "plain rows", true},
		{`{"data":"{\"k\":\"\u00e9\"}\n"}`, "{\"k\":\"\u00e9\"}\n", true},
		{"{\"data\":\"\\u0041\xff\"}", "A\uFFFD", true},
		{"{\"data\":\"a\xff\"}", "a\uFFFD", false},
	} {
		body := []byte(tc.body)
		var req BatchVerifyRequest
		if err := DecodeBody(body, &req); err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		if req.Data != tc.data {
			t.Fatalf("%q: data %q, want %q", tc.body, req.Data, tc.data)
		}
		at := strings.Index(tc.body, `"data":"`) + len(`"data":"`)
		if got := bytes.HasPrefix(body[at:], []byte(req.Data)); got != tc.inPlace {
			t.Fatalf("%q: data in place = %v, want %v", tc.body, got, tc.inPlace)
		}
	}
}

// TestDecodeBodyOtherTypes pins the pass-through: bodies without a
// suspect decode through json.Unmarshal untouched.
func TestDecodeBodyOtherTypes(t *testing.T) {
	body := []byte(`{"url":"http://w","capacity":2}`)
	var got, want WorkerRegistration
	if err := DecodeBody(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// FuzzDecodeRequestBody is the differential gate for DecodeBody: for
// every suspect body type it must accept and reject exactly the inputs
// json.Unmarshal does, and decode accepted ones to equal values.
func FuzzDecodeRequestBody(f *testing.F) {
	for _, c := range decodeCases {
		if len(c) < 1<<10 {
			f.Add([]byte(c))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body)
	})
}

// jobBody is a verify_batch job body carrying a rows-row JSONL suspect,
// encoded by json.Marshal as the Go SDK sends it.
func jobBody(tb testing.TB, rows int) []byte {
	tb.Helper()
	var data strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&data, `{"Visit_Nbr":%d,"Item_Nbr":%d,"Store_Nbr":%d,"Scan_Ts":%d,"Lane":"lane-%d<&>"}`+"\n",
			100000+i, (i*7919)%1000, i%40, 1700000000+i*13, i%8)
	}
	body, err := json.Marshal(JobRequest{
		Kind: JobKindVerifyBatch,
		VerifyBatch: &BatchVerifyRequest{
			Records: []string{"0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210"},
			Schema:  "Visit_Nbr:int!key, Item_Nbr:int:categorical, Store_Nbr:int, Scan_Ts:int, Lane:string",
			Format:  "jsonl",
			Data:    data.String(),
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeRequestBody measures the submit-time decode of a
// 20k-row JSONL verify_batch job body: DecodeBody against the
// json.Unmarshal it replaces.
func BenchmarkDecodeRequestBody(b *testing.B) {
	body := jobBody(b, 20_000)
	buf := make([]byte, len(body))
	for _, bm := range []struct {
		name   string
		decode func([]byte, any) error
	}{
		{"onepass", DecodeBody},
		{"unmarshal", json.Unmarshal},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, body)
				var req JobRequest
				if err := bm.decode(buf, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
