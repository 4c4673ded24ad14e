package server

import (
	"bytes"
	"io"
	"net/http/httptest"
)

// DecodeFFTRequest runs the /v1/fft body decoder on body, capped at
// limit bytes, and hands check the decoded request with the status and
// error text the decode maps to, before the codec's buffers go back to
// the pool. The fuzz test that uses it seeds itself from internal/load,
// which imports this package, so it lives in package server_test.
func DecodeFFTRequest(body []byte, limit int64, check func(req *FFTRequest, status int, msg string)) {
	c := getFFTCodec()
	defer putFFTCodec(c)
	var req FFTRequest
	status, msg := 200, ""
	if err := c.decodeRequest(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit, &req); err != nil {
		status, msg = httpStatus(err), err.Error()
	}
	check(&req, status, msg)
}

// CodecDecodes reports whether the codec parses body itself rather than
// handing it to encoding/json.
func CodecDecodes(body []byte) bool {
	c := getFFTCodec()
	defer putFFTCodec(c)
	c.buf = append(c.buf, body...)
	return c.parse(new(FFTRequest))
}
