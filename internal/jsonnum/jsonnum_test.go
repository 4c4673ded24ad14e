package jsonnum

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// referenceFloat is how encoding/json renders a finite float64 (its
// floatEncoder): strconv's shortest 'f' or 'e' form, the exponent's
// leading zero dropped.
func referenceFloat(b []byte, f float64) []byte {
	format := byte('f')
	//fftlint:ignore floatcmp encoding/json's own test: exactly zero renders as "0" in 'f' form
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// parseMismatch reports how Parse disagrees with strconv.ParseFloat on
// token, which must be in the JSON grammar: it must give the same bits,
// be ok exactly when strconv reports no error, and consume the whole
// token.
func parseMismatch(token []byte) error {
	want, err := strconv.ParseFloat(string(token), 64)
	got, end, ok := Parse(token, 0)
	switch {
	case ok != (err == nil):
		return fmt.Errorf("Parse(%q) ok = %v, strconv error %v", token, ok, err)
	case !ok:
	case end != len(token):
		return fmt.Errorf("Parse(%q) ends at %d, want %d", token, end, len(token))
	case math.Float64bits(got) != math.Float64bits(want):
		return fmt.Errorf("Parse(%q) = %v (%#x), strconv %v (%#x)", token, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// appendMismatch reports how AppendFloat's rendering of the finite f,
// after a prefix, differs from encoding/json's.
func appendMismatch(f float64) error {
	got := AppendFloat([]byte("x"), f)
	want := referenceFloat([]byte("x"), f)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("AppendFloat(%v) (bits %#x) = %q, want %q", f, math.Float64bits(f), got[1:], want[1:])
	}
	return nil
}

// check fails t with the first mismatch in errs.
func check(t testing.TB, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// differentialPatterns is how many random float64 bit patterns the
// differential test draws. The race detector makes each check about ten
// times dearer and the kernels share nothing between goroutines, so a
// race build draws a twentieth of them.
const differentialPatterns = 10_000_000

// fixedToken appends f in 'e' form with prec digits after the point.
// strconv renders up to 16 itself; further digits are random, because
// strconv's exact rendering past 17 significant digits is multiprecision
// and would cost the differential test most of its time.
func fixedToken(b []byte, f float64, prec int, rng *rand.Rand) []byte {
	if prec <= 16 {
		return strconv.AppendFloat(b, f, 'e', prec, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', 16, 64)
	e := bytes.IndexByte(b, 'e')
	var exp [8]byte
	n := copy(exp[:], b[e:])
	b = b[:e]
	for ; prec > 16; prec-- {
		b = append(b, byte('0'+rng.Intn(10)))
	}
	return append(b, exp[:n]...)
}

// TestDifferential draws random finite bit patterns. AppendFloat must
// write encoding/json's bytes for each. Parse must agree with strconv
// on AppendFloat's rendering and on a rendering in 'e' form with 0–24
// digits after the point (fixedToken), so mantissas of 1 to 25
// significant digits occur, past the 19 Parse keeps.
func TestDifferential(t *testing.T) {
	n := differentialPatterns
	switch {
	case testing.Short():
		n = 100_000
	case raceEnabled:
		n /= 20
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var token []byte
			for i := 0; i < n/workers && !t.Failed(); i++ {
				f := math.Float64frombits(rng.Uint64())
				if math.IsInf(f, 0) || math.IsNaN(f) {
					continue
				}
				err := appendMismatch(f)
				if err == nil {
					token = AppendFloat(token[:0], f)
					err = parseMismatch(token)
				}
				if err == nil {
					token = fixedToken(token[:0], f, rng.Intn(25), rng)
					err = parseMismatch(token)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// TestDecades covers the magnitudes samples have: NormFloat64·10^k for
// k across ±25 decades, rendered shortest, and with 0–24 fixed digits
// in both 'e' and plain form.
func TestDecades(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var token []byte
	for k := -25; k <= 25; k++ {
		for i := 0; i < 2000; i++ {
			f := rng.NormFloat64() * math.Pow(10, float64(k))
			prec := rng.Intn(25)
			check(t,
				appendMismatch(f),
				parseMismatch(AppendFloat(token[:0], f)),
				parseMismatch(strconv.AppendFloat(token[:0], f, 'e', prec, 64)),
				parseMismatch(strconv.AppendFloat(token[:0], f, 'f', prec, 64)))
		}
	}
}

// TestAppendFloatMatchesEncodingJSON ties the reference rendering to
// encoding/json itself.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var got []byte
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got = AppendFloat(got[:0], f); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %q, encoding/json %q", f, got, want)
		}
	}
}

// TestKernelsDoNotAllocate pins both kernels at 0 allocs/op on sample
// values of every magnitude.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 64)
	for i := range values {
		values[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
	}
	values = append(values, 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64)
	var tokens [][]byte
	for _, f := range values {
		tokens = append(tokens, AppendFloat(nil, f), strconv.AppendFloat(nil, f, 'e', 20, 64))
	}
	buf := make([]byte, 0, 64)
	appendAllocs := testing.AllocsPerRun(100, func() {
		for _, f := range values {
			buf = AppendFloat(buf[:0], f)
		}
	})
	parseAllocs := testing.AllocsPerRun(100, func() {
		for _, tok := range tokens {
			if _, _, ok := Parse(tok, 0); !ok {
				panic("rejected")
			}
		}
	})
	//fftlint:ignore floatcmp AllocsPerRun counts whole objects; the assertion is exactly zero
	if appendAllocs != 0 || parseAllocs != 0 {
		t.Errorf("allocs per run: AppendFloat %v, Parse %v; want 0", appendAllocs, parseAllocs)
	}
}

// benchValues are n=1024 transform-like samples, the magnitudes fftd
// sees.
func benchValues() []float64 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 1024)
	for i := range v {
		v[i] = rng.NormFloat64() * 30
	}
	return v
}

func BenchmarkParse(b *testing.B) {
	var body []byte
	var ends []int
	for _, f := range benchValues() {
		body = AppendFloat(body, f)
		ends = append(ends, len(body))
		body = append(body, ',')
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := 0
		for _, end := range ends {
			if _, e, ok := Parse(body, at); !ok || e != end {
				b.Fatal("bad parse")
			}
			at = end + 1
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ends)), "ns/sample")
}

func BenchmarkParseStrconv(b *testing.B) {
	var tokens []string
	for _, f := range benchValues() {
		tokens = append(tokens, string(AppendFloat(nil, f)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tok := range tokens {
			if _, err := strconv.ParseFloat(tok, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tokens)), "ns/sample")
}

func BenchmarkAppendFloat(b *testing.B) {
	values := benchValues()
	buf := make([]byte, 0, 32*len(values))
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, f := range values {
			buf = AppendFloat(buf, f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(values)), "ns/sample")
}

func BenchmarkAppendFloatStrconv(b *testing.B) {
	values := benchValues()
	buf := make([]byte, 0, 32*len(values))
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, f := range values {
			buf = referenceFloat(buf, f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(values)), "ns/sample")
}
