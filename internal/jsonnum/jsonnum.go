// Package jsonnum reads and writes JSON numbers as float64 without
// allocating, with exactly the standard library's results: Parse gives
// strconv.ParseFloat's bits and AppendFloat writes encoding/json's
// bytes. They are the per-sample kernels of fftd's /v1/fft codec, where
// the numbers in a body cost more than the transform they feed.
//
// Parse checks the grammar and builds the decimal mantissa in one scan,
// then converts the way strconv does: Clinger's exact path, then
// Eisel–Lemire, then strconv itself for the rare token neither settles.
// AppendFloat takes Ryū's shortest digits and lays them out directly in
// encoding/json's form. The conversion code is adapted from the Go
// distribution's strconv package (atof.go, eisel_lemire.go,
// ftoaryu.go; BSD-style licence in this directory's LICENSE file).
//
//fftlint:hot
package jsonnum

import (
	"math"
	"strconv"
)

// maxMantDigits is how many significant digits the mantissa holds
// exactly: any 19 decimal digits fit in a uint64.
const maxMantDigits = 19

// Parse reads the JSON number that starts at b[i], in the strict
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns
// its value and the index just past it. The number ends at the first
// byte that cannot extend it ("01" reads as 0 and ends before the 1);
// what may follow is the caller's business. v is bit for bit what
// strconv.ParseFloat returns for the token. ok is false when no number
// in the grammar starts at b[i] (a '.' or exponent with no digits
// after it included), and when strconv.ParseFloat reports an error,
// which for this grammar means a magnitude beyond float64's range.
func Parse(b []byte, i int) (v float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) {
		return 0, start, false
	}
	// The value is man × 10^(dp − nd): man holds the nd significant
	// digits (exactly, while nd ≤ maxMantDigits) and dp is the decimal
	// point's position counted in significant digits.
	var man uint64
	nd, dp := 0, 0
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		first := i
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			man = man*10 + uint64(c)
		}
		nd = i - first
	default:
		return 0, start, false
	}
	dp = nd
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			// Leading zeros of the fraction only shift the point.
			for i < len(b) && b[i] == '0' {
				i++
			}
			dp = frac - i
		}
		first := i
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			man = man*10 + uint64(c)
		}
		nd += i - first
		if i == frac {
			return 0, start, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		first := i
		e := 0
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < 10000 { // far past float64's range either way, as in strconv
				e = e*10 + int(c)
			}
		}
		if i == first {
			return 0, start, false
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	if nd <= maxMantDigits {
		exp10 := dp - nd
		if f, ok := atof64exact(man, exp10, neg); ok {
			return f, i, true
		}
		if f, ok := eiselLemire64(man, exp10, neg); ok {
			return f, i, true
		}
	}
	// Past 19 significant digits man has wrapped, and a few tokens sit
	// where Eisel–Lemire cannot decide: strconv settles both.
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, start, false
	}
	return f, i, true
}

// zeros pads plain decimals: at most 20 between the shortest digits
// and the point below 1e21, at most 5 after "0." from 1e-6 up.
const zeros = "00000000000000000000"

// AppendFloat appends f to b the way encoding/json encodes a float64:
// the shortest digits that read back as f, plain decimal for
// 1e-6 ≤ |f| < 1e21 and d.ddde±x otherwise, the exponent without
// padding; -0 is written "-0". f must be finite: encoding/json refuses
// ±Inf and NaN, and so must the caller.
func AppendFloat(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	exp := int(bits>>mantBits) & (1<<11 - 1)
	mant := bits & (1<<mantBits - 1)
	switch {
	case exp != 0:
		mant |= 1 << mantBits
	case mant == 0:
		return append(b, '0')
	default:
		exp++ // subnormal
	}
	var buf [32]byte
	d := decimalSlice{d: buf[:]}
	ryuFtoaShortest(&d, mant, exp+expBias-mantBits)
	digits := d.d[:d.nd]
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		return appendExp(b, digits, d.dp-1)
	}
	switch dp := d.dp; {
	case dp <= 0:
		b = append(b, "0."...)
		b = append(b, zeros[:-dp]...)
		return append(b, digits...)
	case dp >= len(digits):
		b = append(b, digits...)
		return append(b, zeros[:dp-len(digits)]...)
	default:
		b = append(b, digits[:dp]...)
		b = append(b, '.')
		return append(b, digits[dp:]...)
	}
}

// appendExp appends digits × 10^x in the form d.ddde±x.
func appendExp(b, digits []byte, x int) []byte {
	b = append(b, digits[0])
	if len(digits) > 1 {
		b = append(b, '.')
		b = append(b, digits[1:]...)
	}
	sign := byte('+')
	if x < 0 {
		sign, x = '-', -x
	}
	b = append(b, 'e', sign)
	switch {
	case x >= 100:
		b = append(b, byte(x/100)+'0')
		x %= 100
		return append(b, smallsString[2*x], smallsString[2*x+1])
	case x >= 10:
		return append(b, smallsString[2*x], smallsString[2*x+1])
	default:
		return append(b, byte(x)+'0')
	}
}
