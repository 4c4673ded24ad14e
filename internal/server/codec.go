package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/jsonnum"
)

// The /v1/fft sample codec. A transform request is almost entirely
// numbers, and encoding/json's reflection-driven decode and encode cost
// far more than the transform itself, so this path parses and renders
// the documented schema by hand, each sample with internal/jsonnum's
// kernels. The contract with encoding/json is exact: a body the codec
// decodes yields the same FFTRequest encoding/json would, every other
// body is handed to encoding/json (so acceptance and error text cannot
// differ), and appendFFTResponse writes the bytes json.Encoder would.

// fftCodec is one /v1/fft request's pooled scratch: the request body,
// reused for the encoded response once the body is decoded, and the
// backing arrays the decoded sample slices share.
type fftCodec struct {
	buf   []byte
	pairs []Complex
	reals []float64
	specs []TransformSpec
}

var fftCodecPool = sync.Pool{New: func() any { return new(fftCodec) }}

func getFFTCodec() *fftCodec {
	c := fftCodecPool.Get().(*fftCodec)
	return c
}

// putFFTCodec returns c to the pool. Nothing decoded from c may be used
// afterwards: the request's sample slices alias c's arrays.
func putFFTCodec(c *fftCodec) {
	c.reset()
	fftCodecPool.Put(c)
}

// reset empties c for its next request, keeping its arrays.
func (c *fftCodec) reset() {
	clear(c.specs) // drop the stale specs' references into old arrays
	c.buf, c.pairs, c.reals, c.specs = c.buf[:0], c.pairs[:0], c.reals[:0], c.specs[:0]
}

// decodeRequest reads body, capped at limit bytes, into c.buf and decodes
// it into req: by the codec when the body is in the canonical form it
// knows, by encoding/json otherwise. The encoding/json fallback reads the
// same bytes, ended by the same read error, that it would have read
// straight from the body.
func (c *fftCodec) decodeRequest(w http.ResponseWriter, body io.ReadCloser, limit int64, req *FFTRequest) error {
	var readErr error
	c.buf, readErr = readAll(c.buf[:0], http.MaxBytesReader(w, body, limit))
	if readErr == nil {
		if c.parse(req) {
			return nil
		}
		*req = FFTRequest{}
	}
	return decodeJSON(io.MultiReader(bytes.NewReader(c.buf), errReader{readErr}), req)
}

// parse decodes c.buf into req if it is in the canonical form.
func (c *fftCodec) parse(req *FFTRequest) bool {
	p := fftParser{b: c.buf, c: c}
	return p.spec(&req.TransformSpec, &req.Transforms) && p.end()
}

// readAll appends everything r yields to b, like io.ReadAll into a
// caller-owned buffer. It returns r's error, or nil at io.EOF.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader ends a replayed body the way the original ended.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) {
	if e.err == nil {
		return 0, io.EOF
	}
	return 0, e.err
}

// fftParser parses the canonical form of a /v1/fft body: an object of
// the documented keys, each at most once and spelled exactly, holding
// arrays of [re, im] pairs or numbers in the strict JSON number grammar,
// and true or false; whitespace may sit between tokens. A parse that
// meets anything else (an unknown, escaped or case-variant key, a
// duplicate, null, a number strconv rejects, trailing data) reports
// false, and the caller falls back to encoding/json.
type fftParser struct {
	b []byte
	i int
	c *fftCodec
}

// Bits of the keys a spec object has set, for the duplicate check.
const (
	keyInput = 1 << iota
	keyRealInput
	keyRealInverse
	keyInverse
	keyNoReorder
	keyTransforms
)

// spec parses one transform object into s. transforms is where the
// top-level object's "transforms" key decodes to; it is nil inside the
// batch, where the key is unknown.
func (p *fftParser) spec(s *TransformSpec, transforms *[]TransformSpec) bool {
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	seen := 0
	for {
		key, ok := p.key()
		if !ok || !p.consume(':') {
			return false
		}
		var bit int
		switch string(key) {
		case "input":
			bit, ok = keyInput, p.pairs(&s.Input)
		case "real_input":
			bit, ok = keyRealInput, p.reals(&s.RealInput)
		case "real_inverse":
			bit, ok = keyRealInverse, p.pairs(&s.RealInverse)
		case "inverse":
			bit, ok = keyInverse, p.boolean(&s.Inverse)
		case "no_reorder":
			bit, ok = keyNoReorder, p.boolean(&s.NoReorder)
		case "transforms":
			bit, ok = keyTransforms, transforms != nil && p.specs(transforms)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !p.consume(',') {
			return p.consume('}')
		}
	}
}

// specs parses the batch array.
func (p *fftParser) specs(dst *[]TransformSpec) bool {
	start := len(p.c.specs)
	ok := p.array(func() bool {
		p.c.specs = append(p.c.specs, TransformSpec{})
		return p.spec(&p.c.specs[len(p.c.specs)-1], nil)
	})
	*dst = arenaTail(p.c.specs, start)
	return ok
}

// pairs parses an array of [re, im] samples.
func (p *fftParser) pairs(dst *[]Complex) bool {
	start := len(p.c.pairs)
	ok := p.array(func() bool {
		var v Complex
		var ok bool
		if !p.consume('[') {
			return false
		}
		if v[0], ok = p.number(); !ok || !p.consume(',') {
			return false
		}
		if v[1], ok = p.number(); !ok || !p.consume(']') {
			return false
		}
		p.c.pairs = append(p.c.pairs, v)
		return true
	})
	*dst = arenaTail(p.c.pairs, start)
	return ok
}

// reals parses an array of numbers.
func (p *fftParser) reals(dst *[]float64) bool {
	start := len(p.c.reals)
	ok := p.array(func() bool {
		v, ok := p.number()
		if ok {
			p.c.reals = append(p.c.reals, v)
		}
		return ok
	})
	*dst = arenaTail(p.c.reals, start)
	return ok
}

// arenaTail is the slice an array decoded into, arena[start:]. Its
// capacity is clipped so appending to it cannot write into the arena,
// and it is never nil: encoding/json decodes [] to an empty, non-nil
// slice.
func arenaTail[T any](arena []T, start int) []T {
	if arena == nil {
		return []T{}
	}
	return arena[start:len(arena):len(arena)]
}

// array parses '[' elem (',' elem)* ']' or '[' ']'.
func (p *fftParser) array(elem func() bool) bool {
	if !p.consume('[') {
		return false
	}
	if p.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !p.consume(',') {
			return p.consume(']')
		}
	}
}

// key parses a string token. An escaped key comes back with its
// backslash, so it matches no key the codec knows.
func (p *fftParser) key() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(p.b[p.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := p.b[p.i : p.i+n]
	p.i += n + 1
	return k, true
}

func (p *fftParser) boolean(v *bool) bool {
	p.skipSpace()
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		*v = true
		p.i += len("true")
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		*v = false
		p.i += len("false")
	default:
		return false
	}
	return true
}

// number parses one number in the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, to the value
// strconv.ParseFloat gives, as encoding/json does. It reports false for
// a value out of float64 range, which encoding/json rejects.
func (p *fftParser) number() (float64, bool) {
	p.skipSpace()
	f, end, ok := jsonnum.Parse(p.b, p.i)
	if ok {
		p.i = end
	}
	return f, ok
}

// consume skips whitespace, then consumes c if it comes next.
func (p *fftParser) consume(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *fftParser) end() bool {
	p.skipSpace()
	return p.i == len(p.b)
}

func (p *fftParser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// appendFFTResponse appends resp to b exactly as json.Encoder would
// write it: compact, ending in a newline.
func appendFFTResponse(b []byte, resp *FFTResponse) ([]byte, error) {
	b = append(b, `{"batch":`...)
	b = strconv.AppendInt(b, int64(resp.Batch), 10)
	b = append(b, `,"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendTransformResult(b, &resp.Results[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

func appendTransformResult(b []byte, r *TransformResult) ([]byte, error) {
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	if len(r.Output) > 0 {
		b = append(b, `,"output":[`...)
		for i, v := range r.Output {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			b = append(b, '[')
			if b, err = appendFloat(b, v[0]); err != nil {
				return b, err
			}
			b = append(b, ',')
			if b, err = appendFloat(b, v[1]); err != nil {
				return b, err
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if r.Error != "" {
		// Error text is rare and short; encoding/json's string escaping
		// (HTML characters, U+2028, invalid UTF-8) is the rule to match.
		s, err := json.Marshal(r.Error)
		if err != nil {
			return b, err
		}
		b = append(b, `,"error":`...)
		b = append(b, s...)
	}
	return append(b, '}'), nil
}

// appendFloat appends f the way encoding/json encodes a float64: the
// shortest representation that round-trips, in ES6 number-to-string
// form (exponent outside [1e-6, 1e21), without exponent padding).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return jsonnum.AppendFloat(b, f), nil
}
