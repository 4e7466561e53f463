package characterize

import (
	"math"
	"strconv"
	"unicode/utf8"

	"gpuperf/internal/arch"
	"gpuperf/internal/fault"
	"gpuperf/internal/validity"
)

// cellDecoder decodes journal cell lines without reflection. It accepts
// exactly the bytes json.Marshal writes for a journalCell: the keys in
// field order, each omitempty field present only when it is non-zero,
// every number in the form encoding/json formats it, and strings that
// need no escape. decode reports false for any other line, and the
// loader then decodes it through encoding/json, so a legacy, corrupt or
// hand-edited line decodes, or is skipped, as it always did.
//
// A journal repeats a few boards, benchmarks, pairs, fail points and
// reasons on every line, so strings are interned: each is allocated once
// per decoder, not once per line.
type cellDecoder struct {
	strs map[string]string
	num  []byte // scratch: a number re-formatted to check its form
}

// decode fills c from line (without its newline) and reports whether
// line is exactly json.Marshal(*c). On false, c is unspecified.
func (d *cellDecoder) decode(line []byte, c *journalCell) bool {
	p := cellParser{b: line, d: d, ok: true}
	r := &c.Result
	p.lit(`{"kind":"cell","board":`)
	c.Kind = "cell"
	c.Board = p.str()
	p.lit(`,"bench":`)
	c.Bench = p.str()
	p.lit(`,"pair":`)
	c.Pair = p.str()
	c.Rep = 0
	if p.opt(`,"rep":`) {
		c.Rep = p.nonZeroInt()
	}
	p.lit(`,"result":{"Pair":{"Core":`)
	r.Pair.Core = arch.FreqLevel(p.int())
	p.lit(`,"Mem":`)
	r.Pair.Mem = arch.FreqLevel(p.int())
	p.lit(`},"TimePerIter":`)
	r.TimePerIter = p.float()
	p.lit(`,"AvgWatts":`)
	r.AvgWatts = p.float()
	p.lit(`,"EnergyPerIter":`)
	r.EnergyPerIter = p.float()
	r.Quarantined = p.opt(`,"Quarantined":true`)
	r.FailPoint = ""
	if p.opt(`,"FailPoint":`) {
		r.FailPoint = fault.Point(p.nonEmptyStr())
	}
	r.Retries = 0
	if p.opt(`,"Retries":`) {
		r.Retries = p.nonZeroInt()
	}
	r.Confidence = 0
	if p.opt(`,"Confidence":`) {
		if r.Confidence = p.float(); r.Confidence == 0 {
			p.ok = false
		}
	}
	r.Interpolated = 0
	if p.opt(`,"Interpolated":`) {
		r.Interpolated = p.nonZeroInt()
	}
	p.lit(`,"verdict":{"class":`)
	r.Verdict.Class = validity.Class(p.str())
	r.Verdict.Reason = ""
	if p.opt(`,"reason":`) {
		r.Verdict.Reason = p.nonEmptyStr()
	}
	p.lit(`}}}`)
	return p.ok && len(p.b) == 0
}

func (d *cellDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// cellParser walks one line. The first mismatch clears ok; every later
// call is then a no-op, so decode reads as the line's grammar.
type cellParser struct {
	b  []byte // the unread rest of the line
	d  *cellDecoder
	ok bool
}

// opt consumes s if the line continues with it.
func (p *cellParser) opt(s string) bool {
	if p.ok && len(p.b) >= len(s) && string(p.b[:len(s)]) == s {
		p.b = p.b[len(s):]
		return true
	}
	return false
}

// lit consumes s, which the line must continue with.
func (p *cellParser) lit(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

// str consumes a string that json.Marshal writes without escapes: no
// quote, backslash, control byte, '<', '>' or '&', valid UTF-8, and no
// U+2028 or U+2029.
func (p *cellParser) str() string {
	if !p.ok || len(p.b) == 0 || p.b[0] != '"' {
		p.ok = false
		return ""
	}
	for i := 1; i < len(p.b); {
		c := p.b[i]
		switch {
		case c == '"':
			s := p.d.intern(p.b[1:i])
			p.b = p.b[i+1:]
			return s
		case c < 0x20 || c == '\\' || c == '<' || c == '>' || c == '&':
			p.ok = false
			return ""
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(p.b[i:])
			if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
				p.ok = false
				return ""
			}
			i += n
		}
	}
	p.ok = false
	return ""
}

// nonEmptyStr is str for an omitempty string field.
func (p *cellParser) nonEmptyStr() string {
	s := p.str()
	if s == "" {
		p.ok = false
	}
	return s
}

// number consumes the bytes a JSON number token may hold.
func (p *cellParser) number() []byte {
	i := 0
	for i < len(p.b) {
		c := p.b[i]
		if (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		i++
	}
	tok := p.b[:i]
	p.b = p.b[i:]
	return tok
}

// int consumes an integer in strconv.AppendInt's form: an optional
// minus, then no leading zero and no "-0". It takes up to 18 digits that
// fit an int; anything longer is left to encoding/json.
func (p *cellParser) int() int {
	if !p.ok {
		return 0
	}
	tok := p.number()
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 || digits[0] == '0' && len(tok) > 1 {
		p.ok = false
		return 0
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			p.ok = false
			return 0
		}
		v = v*10 + int64(c-'0')
	}
	if len(digits) < len(tok) {
		v = -v
	}
	if int64(int(v)) != v {
		p.ok = false
		return 0
	}
	return int(v)
}

// nonZeroInt is int for an omitempty integer field.
func (p *cellParser) nonZeroInt() int {
	v := p.int()
	if v == 0 {
		p.ok = false
	}
	return v
}

// float consumes a float64 in the form appendJSONFloat writes for it.
func (p *cellParser) float() float64 {
	if !p.ok {
		return 0
	}
	tok := p.number()
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		p.ok = false
		return 0
	}
	p.d.num = appendJSONFloat(p.d.num[:0], v)
	if string(p.d.num) != string(tok) {
		p.ok = false
		return 0
	}
	return v
}

// appendJSONFloat appends f as encoding/json writes a finite float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 or
// from 1e21, with a negative exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
