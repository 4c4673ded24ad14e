package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/load"
	"repro/internal/server"
)

// decodeWithEncodingJSON is the /v1/fft decode the codec replaced:
// encoding/json straight from the capped body, with the same error
// mapping.
func decodeWithEncodingJSON(body []byte, limit int64) (server.FFTRequest, int, string) {
	var req server.FFTRequest
	capped := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit)
	err := json.NewDecoder(capped).Decode(&req)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return req, http.StatusOK, ""
	case errors.As(err, &tooBig):
		return req, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
	default:
		return req, http.StatusBadRequest, "decode: " + err.Error()
	}
}

// preparedBodies are /v1/fft bodies as internal/load sends them: one
// per DefaultCohorts cohort, at the cohort's size when full is set and
// at a few samples otherwise, plus batches of the small ones.
func preparedBodies(t testing.TB, full bool) [][]byte {
	var bodies [][]byte
	var specs []server.TransformSpec
	for i, c := range load.DefaultCohorts() {
		n := 1 + i
		if full {
			n = c.N
		}
		p, err := load.Prepare(&load.Request{Op: c.Op, N: n, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, p.Body)
		var req server.FFTRequest
		if err := json.Unmarshal(p.Body, &req); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, req.TransformSpec)
	}
	if !full {
		for _, batch := range [][]server.TransformSpec{specs, specs[:1], {}} {
			body, err := json.Marshal(server.FFTRequest{Transforms: batch})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// TestCodecDecodesPreparedBodies: every body the load generator sends
// takes the codec's own parse, not the encoding/json fallback, and
// decodes to what encoding/json gives.
func TestCodecDecodesPreparedBodies(t *testing.T) {
	for _, body := range append(preparedBodies(t, true), preparedBodies(t, false)...) {
		if !server.CodecDecodes(body) {
			t.Errorf("codec falls back on a prepared body: %.80s", body)
		}
		want, _, _ := decodeWithEncodingJSON(body, int64(len(body)))
		server.DecodeFFTRequest(body, int64(len(body)), func(got *server.FFTRequest, status int, msg string) {
			if status != http.StatusOK || !reflect.DeepEqual(*got, want) {
				t.Errorf("prepared body %.80s: codec %d %q, request differs: %v", body, status, msg, !reflect.DeepEqual(*got, want))
			}
		})
	}
}

// FuzzDecodeFFTRequest: for any body and cap, the codec's decode gives
// the request, status and error text that encoding/json's does.
func FuzzDecodeFFTRequest(f *testing.F) {
	// Small seeds only: the fuzzer minimizes every new input it finds,
	// and minimizing a 100 KB body stalls it.
	for _, body := range preparedBodies(f, false) {
		f.Add(body, uint32(len(body)))
		f.Add(body, uint32(len(body)/2))
	}
	for _, body := range []string{
		``, ` `, `{}`, `[]`, `null`, `{"input":null}`, `{"input":[]}`, `{"transforms":[]}`,
		` {"input" : [ [1 , -0] ,[ 2.5e-3,1E+2 ] ] , "inverse" : true } `,
		`{"input":[[1,0]]} `, `{"input":[[1,0]]} x`, `{"input":[[1,0]]}{}`,
		`{"input":[[1,0]],"input":[[2,0]]}`, `{"Input":[[1,0]]}`, `{"input":[[1,0]]}`,
		`{"input":[[1,0]],"extra":1}`, `{"input":[[1]]}`, `{"input":[[1,2,3]]}`, `{"input":[[1e400,0]]}`,
		`{"input":[[01,0]]}`, `{"input":[[1.,0]]}`, `{"input":[[.5,0]]}`, `{"input":[[+1,0]]}`,
		`{"input":[[-,0]]}`, `{"input":[[1e,0]]}`, `{"input":[[0x10,0]]}`, `{"input":[[1_0,0]]}`,
		`{"input":[[Infinity,0]]}`, `{"input":[["1",0]]}`, `{"real_input":[1,2,3,4],"no_reorder":false}`,
		`{"real_inverse":[[10,0],[-2,2],[-2,0]]}`, `{"inverse":1}`, `{"inverse":truex}`,
		`{"transforms":[{"transforms":[]}]}`, `{"transforms":[{"input":[[1,0]]},{"real_input":[1,2]}]}`,
		`{"transforms":[{}],"input":[[1,0]]}`, `{"input":[[1,0],]}`, `{"input":[[1,0]]`, "{\"input\":[[1,0]]}\xff",
		"\ufeff{}", `{"input":[[1,0]] , }`, `{"":1}`, `{"input":[[1e-400,-0.0]]}`,
	} {
		f.Add([]byte(body), uint32(1<<20))
		f.Add([]byte(body), uint32(len(body)/2))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint32) {
		want, wantStatus, wantMsg := decodeWithEncodingJSON(body, int64(limit))
		server.DecodeFFTRequest(body, int64(limit), func(got *server.FFTRequest, status int, msg string) {
			if status != wantStatus || msg != wantMsg {
				t.Fatalf("body %q cap %d: codec %d %q, encoding/json %d %q", body, limit, status, msg, wantStatus, wantMsg)
			}
			if status == http.StatusOK && !reflect.DeepEqual(*got, want) {
				t.Fatalf("body %q: codec decoded %+v, encoding/json %+v", body, *got, want)
			}
		})
	})
}
