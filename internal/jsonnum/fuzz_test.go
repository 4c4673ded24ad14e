package jsonnum

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strconv"
	"testing"
)

var (
	// number is the strict JSON number grammar, matched at the start.
	number = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	// committed is how far Parse reads before it knows a number is
	// malformed: a '.' or an exponent marker commits it to the digits
	// that must follow.
	committed = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?`)
)

func init() {
	number.Longest()
	committed.Longest()
}

// FuzzParse: on any bytes, Parse reads exactly the strict grammar's
// longest number at the start, rejects a '.' or exponent left without
// digits, and otherwise agrees with strconv.ParseFloat bit for bit; it
// reads the same wherever in a buffer the bytes start.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// Zeros, subnormals, the normal boundary, the overflow edge.
		"0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0.000e999999", "-0e-99999", "1", "-1", "9",
		"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-324",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.8e308",
		// Around 2^53 and 2^64, and the edges of the exact path.
		"9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
		"4503599627370496", "4503599627370497", "18014398509481985",
		"1e22", "1e23", "1e15", "1e16", "123456789012345e22", "1234567890123456e22", "1e37", "1e38",
		"0.1", "0.2", "0.3", "1e-22", "1e-23", "3.0000000000000004", "123.456", "-0.000001",
		// 19, 20 and more significant digits.
		"9999999999999999999", "10000000000000000000", "18446744073709551615", "18446744073709551616",
		"12345678901234567890", "123456789012345678901234567890", "1.00000000000000000000000000001",
		"0.00000000000000000000000000000000000000001", "1000000000000000000000000000000000000000",
		"9007199254740993.00000000000000000001", "2.22507385850720113605740979670913197593481954635164564e-308",
		// Exponents past the table and past float64's range.
		"1e350", "-1e350", "1e-350", "-1e-350", "1e400", "1e-400", "1e99999", "1e-99999",
		"1e+308", "1e+309", "1E5", "1e-5", "1e+05", "1e-07", "12.5e-3", "7e-10", "1e21", "1e20",
		// Outside the grammar, and numbers that end early.
		"", "-", "+1", ".5", "-.5", "1.", "1.e5", "1e", "1e+", "1E-", "Infinity", "-Infinity", "NaN",
		"-x", " 1", "\"1\"", "0x1p3", "01", "-01", "00", "0x10", "1_0", "1_000", "1.5x", "1e5e",
		"1.5.5", "-0.0]", "12,", "1e+5 ", "3]", "[1]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, end, ok := Parse(b, 0)
		if v2, end2, ok2 := Parse(append([]byte("[,"), b...), 2); ok2 != ok ||
			ok && (end2 != end+2 || math.Float64bits(v2) != math.Float64bits(v)) {
			t.Fatalf("Parse(%q) = %v, %d, %v at offset 0 but %v, %d, %v at offset 2", b, v, end, ok, v2, end2, ok2)
		}
		tok := number.Find(b)
		if tok == nil || len(committed.Find(b)) > len(tok) {
			if ok {
				t.Fatalf("Parse(%q) = %v ending at %d, want rejected", b, v, end)
			}
			return
		}
		want, err := strconv.ParseFloat(string(tok), 64)
		switch {
		case ok != (err == nil):
			t.Fatalf("Parse(%q) ok = %v, strconv on %q: %v", b, ok, tok, err)
		case ok && (end != len(tok) || math.Float64bits(v) != math.Float64bits(want)):
			t.Fatalf("Parse(%q) = %v (%#x) ending at %d, strconv %v (%#x) on %q",
				b, v, math.Float64bits(v), end, want, math.Float64bits(want), tok)
		}
	})
}

// FuzzAppendFloat: for any finite bit pattern, AppendFloat writes what
// encoding/json writes, and Parse reads it back to the same bits.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e20, 1e21, -1e21, math.Nextafter(1e21, 0),
		123456789, 1e-300, 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 1.0000000000000002, 1 << 53, 1<<53 + 2, 1e15, 1e16, 1e17,
		123e-9, 1e-10, 1e-100, 1e100, 1e300, 4.35e-7, 999999999999999999999, 100, 1000000, -123.456,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		got := AppendFloat(nil, v)
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) (bits %#x) = %q, encoding/json %q", v, bits, got, want)
		}
		back, end, ok := Parse(got, 0)
		if !ok || end != len(got) || math.Float64bits(back) != bits {
			t.Fatalf("Parse(%q) = %v, %d, %v; want bits %#x back", got, back, end, ok, bits)
		}
	})
}
