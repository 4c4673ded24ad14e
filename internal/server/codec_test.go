package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// encoderBytes is the reference the codec's encoder must reproduce:
// json.Encoder's compact output.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendFFTResponseMatchesEncoder pins the codec's response bytes
// to json.Encoder's compact output on random responses and on the
// float and string edge cases where encoding/json has rules of its own.
func TestAppendFFTResponseMatchesEncoder(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		1e20, 1e21, -1e21, 123456789, 1e-300, 5e-324, -5e-324,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1.0000000000000002, 0.1, 1.0 / 3,
	}
	var pairs []Complex
	for _, re := range edge {
		for _, im := range edge {
			pairs = append(pairs, Complex{re, im})
		}
	}
	responses := []FFTResponse{
		{Batch: 1, Results: []TransformResult{{N: len(pairs), Output: pairs}}},
		{},
		{Batch: 0, Results: []TransformResult{}},
		{Batch: 3, Results: []TransformResult{
			{N: 2, Output: []Complex{{1, 2}, {3, 4}}},
			{Error: `bad <input> & "quotes" \ back` + "\u2028\u2029 \x00\x1f\b\f\t\n\r"},
			{N: 4, Error: "invalid utf-8: \xff\xfe \xed\xa0\x80 ok é 𝄞"},
			{N: 5, Output: []Complex{}},
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		results := make([]TransformResult, 1+rng.Intn(3))
		for j := range results {
			out := make([]Complex, rng.Intn(40))
			for k := range out {
				// Scatter magnitudes over the whole exponent range, so
				// both the 'f' and 'e' forms and their boundary occur.
				out[k] = Complex{
					rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)),
					math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52),
				}
			}
			results[j] = TransformResult{N: len(out), Output: out}
		}
		responses = append(responses, FFTResponse{Batch: len(results), Results: results})
	}
	for i := range responses {
		got, err := appendFFTResponse([]byte("prefix"), &responses[i])
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		want := append([]byte("prefix"), encoderBytes(t, responses[i])...)
		if !bytes.Equal(got, want) {
			t.Fatalf("response %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestAppendFFTResponseRejectsNonFinite: like encoding/json, the
// encoder refuses ±Inf and NaN, with encoding/json's error text.
func TestAppendFFTResponseRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		resp := FFTResponse{Batch: 1, Results: []TransformResult{{N: 2, Output: []Complex{{1, 0}, {0, f}}}}}
		_, err := appendFFTResponse(nil, &resp)
		_, want := json.Marshal(resp)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) || want == nil || err.Error() != want.Error() {
			t.Errorf("%v: err = %v, want %v", f, err, want)
		}
	}
}

// TestFFTOverflowFailsTransform: an output that overflows float64 has
// no JSON form. It fails its own transform with a 400-class error and
// leaves the rest of a batch intact; it used to answer 200 with an
// empty body.
func TestFFTOverflowFailsTransform(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	overflow := `{"input":[[1e308,0],[1e308,0]]}`
	for _, c := range []struct {
		name string
		body string
		bad  []bool // per result: carries an error
	}{
		{"complex", overflow, []bool{true}},
		{"real", `{"real_input":[1e308,1e308]}`, []bool{true}},
		{"batch", `{"transforms":[{"input":[[1,0],[2,0]]},` + overflow + `]}`, []bool{false, true}},
	} {
		resp := postBody(t, ts.URL+"/v1/fft", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", c.name, resp.StatusCode)
		}
		body := decode[FFTResponse](t, resp)
		if len(body.Results) != len(c.bad) {
			t.Fatalf("%s: %d results, want %d", c.name, len(body.Results), len(c.bad))
		}
		for i, bad := range c.bad {
			r := body.Results[i]
			switch {
			case bad && !strings.Contains(r.Error, "overflows float64"):
				t.Errorf("%s: result %d error = %q, want an overflow error", c.name, i, r.Error)
			case bad && len(r.Output) != 0:
				t.Errorf("%s: failed result %d carries output", c.name, i)
			case !bad && (r.Error != "" || len(r.Output) != 2):
				t.Errorf("%s: result %d = %+v, want the good transform's output", c.name, i, r)
			}
		}
	}

	resp := postBody(t, ts.URL+"/v1/fft2d", `{"rows":2,"cols":1,"input":[[1e308,0],[1e308,0]]}`)
	body := decode[errorBody](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "overflows float64") {
		t.Fatalf("fft2d overflow: status %d, body %+v; want 400 naming the overflow", resp.StatusCode, body)
	}
}

// TestWriteJSONEncodeFailureIs500: a value encoding/json refuses is
// encoded before the header goes out, so it becomes a 500 with an error
// body instead of a 200 with none.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.route("GET /test/inf", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]float64{"x": math.Inf(1)})
	}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := testClient.Get(ts.URL + "/test/inf")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[errorBody](t, resp)
	if resp.StatusCode != http.StatusInternalServerError || body.Status != http.StatusInternalServerError ||
		!strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("status %d, body %+v; want 500 naming the unsupported value", resp.StatusCode, body)
	}
}

// TestResponsesAreCompact: every JSON response is json.Encoder's compact
// form, error bodies and the draining /readyz included.
func TestResponsesAreCompact(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := testClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	_, got := get(http.MethodPost, "/v1/fft", `{"input": [[1, 0], [2, 0], [3, 0], [4, 0]]}`)
	var fft FFTResponse
	if err := json.Unmarshal(got, &fft); err != nil {
		t.Fatal(err)
	}
	if want := encoderBytes(t, fft); !bytes.Equal(got, want) {
		t.Errorf("/v1/fft body %q, want %q", got, want)
	}
	status, got := get(http.MethodPost, "/v1/fft", `nope`)
	if want := encoderBytes(t, errorBody{Error: "decode: invalid character 'o' in literal null (expecting 'u')", Status: 400}); status != 400 || !bytes.Equal(got, want) {
		t.Errorf("error body %d %q, want 400 %q", status, got, want)
	}
	s.StartDrain()
	status, got = get(http.MethodGet, "/readyz", "")
	if want := encoderBytes(t, HealthResponse{Status: "draining"}); status != http.StatusServiceUnavailable || !bytes.Equal(got, want) {
		t.Errorf("draining /readyz %d %q, want 503 %q", status, got, want)
	}
}

// TestSimulateBodyCapped: /v1/simulate reads at most 64 KiB of body; a
// larger one is refused with 413 instead of buffered.
func TestSimulateBodyCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"network":"` + strings.Repeat("a", 1<<20) + `"}`
	resp := postBody(t, ts.URL+"/v1/simulate", body)
	got := decode[errorBody](t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(got.Error, "65536") {
		t.Fatalf("1 MiB simulate body: status %d, body %+v; want 413 naming the 65536-byte cap", resp.StatusCode, got)
	}
}
