package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"maxminlp/internal/obs"
)

// specialFloats are the values where a float encoder can drift from
// encoding/json: both zeros, the 'f'/'e' switch points at 1e-6 and 1e21,
// one- and three-digit exponents, subnormals and the extremes.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 1e20,
	1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e-10, 1e21, math.Nextafter(1e21, 0),
	5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	1e-300, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// kinds includes strings encoding/json escapes: HTML characters, control
// bytes, U+2028/U+2029 and invalid UTF-8.
var kinds = []string{
	"safe", "average", "adaptive", "certificate", "", "<a&b>", "q\"\\",
	"\x00\x1f\t\n\b\f\r", "\u2028\u2029", "\xff\xfe", "é", "\x7f",
}

// fuzzResults derives a []SolveResult from arbitrary bytes, drawing
// floats either from specialFloats or as raw bit patterns.
func fuzzResults(data []byte) []SolveResult {
	if len(data) == 0 {
		return nil
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	flt := func() float64 {
		if sel := next(); sel < 128 {
			return specialFloats[int(sel)%len(specialFloats)]
		}
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(next())
		}
		return math.Float64frombits(bits)
	}
	rs := make([]SolveResult, next()%4)
	for i := range rs {
		r := &rs[i]
		r.Kind = kinds[int(next())%len(kinds)]
		r.Radius = int(int8(next()))
		r.Omega = flt()
		flags := next()
		if flags&1 != 0 {
			r.PartyBound = flt()
		}
		if flags&2 != 0 {
			r.ResourceBound = flt()
		}
		if flags&4 != 0 {
			r.Certificate = flt()
		}
		if flags&8 != 0 {
			v := flags&16 != 0
			r.Achieved = &v
		}
		r.LocalLPs = int(int8(next()))
		r.SolvesAvoided = int(next())
		r.Micros = int64(int16(uint16(next())<<8 | uint16(next())))
		if n := int(next() % 9); n > 0 || flags&32 != 0 {
			r.X = make([]float64, n)
			for j := range r.X {
				r.X[j] = flt()
			}
		}
	}
	return rs
}

// sameResults compares two decodings bit for bit: signed zeros, nil
// against empty, and pointer targets.
func sameResults(a, b []SolveResult) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		p, q := &a[i], &b[i]
		if p.Kind != q.Kind || p.Radius != q.Radius || p.LocalLPs != q.LocalLPs ||
			p.SolvesAvoided != q.SolvesAvoided || p.Micros != q.Micros ||
			!same(p.Omega, q.Omega) || !same(p.PartyBound, q.PartyBound) ||
			!same(p.ResourceBound, q.ResourceBound) || !same(p.Certificate, q.Certificate) {
			return false
		}
		if (p.Achieved == nil) != (q.Achieved == nil) || p.Achieved != nil && *p.Achieved != *q.Achieved {
			return false
		}
		if (p.X == nil) != (q.X == nil) || !sameBits(p.X, q.X) {
			return false
		}
	}
	return true
}

// checkDecode requires DecodeSolveResults, with and without a memo, to
// agree with json.Unmarshal on data: the same values bit for bit, or an
// error from both.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var want []SolveResult
	wantErr := json.Unmarshal(data, &want)
	memo := new(XMemo)
	for pass, m := range []*XMemo{nil, memo, memo} {
		got, err := DecodeSolveResults(data, m)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("pass %d on %q: error %v, json.Unmarshal error %v", pass, data, err, wantErr)
		}
		if wantErr == nil && !sameResults(got, want) {
			t.Fatalf("pass %d on %q: decoded %+v, json.Unmarshal %+v", pass, data, got, want)
		}
		// A memo hands out copies: scribbling on one cannot reach the next.
		for i := range got {
			for j := range got[i].X {
				got[i].X[j] = math.NaN()
			}
		}
	}
}

// checkEncode requires AppendSolveResults, with and without a memo, to
// write json.Marshal's bytes plus a newline (or fail with its error), and
// its output to decode back to rs.
func checkEncode(t *testing.T, rs []SolveResult) {
	t.Helper()
	want, wantErr := json.Marshal(rs)
	memo := new(XMemo)
	for pass, m := range []*XMemo{nil, memo, memo} {
		got, err := AppendSolveResults([]byte("prefix"), rs, m)
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("pass %d on %+v: error %v, json.Marshal error %v", pass, rs, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got, append([]byte("prefix"), append(want, '\n')...)) {
			t.Fatalf("pass %d on %+v:\n got %s\nwant prefix%s", pass, rs, got, want)
		}
	}
	if wantErr != nil {
		return
	}
	// The encoder's own output decodes back bit for bit, through the
	// direct path whenever every kind is plain ASCII. Omitted fields come
	// back as +0 and nil, and kinds as encoding/json repairs them.
	back, err := DecodeSolveResults(want, nil)
	norm := slices.Clone(rs)
	plain := true
	for i := range norm {
		r := &norm[i]
		if len(r.X) == 0 {
			r.X = nil
		}
		for _, f := range []*float64{&r.PartyBound, &r.ResourceBound, &r.Certificate} {
			if *f == 0 {
				*f = 0
			}
		}
		q, _ := json.Marshal(r.Kind)
		plain = plain && string(q) == `"`+r.Kind+`"` && !strings.ContainsFunc(r.Kind, func(c rune) bool { return c >= 0x7f })
		json.Unmarshal(q, &r.Kind)
	}
	if err != nil || !sameResults(back, norm) {
		t.Fatalf("round trip of %s: %+v, %v", want, back, err)
	}
	if _, ok := decodeCanonical(want, nil); plain && rs != nil && !ok {
		t.Fatalf("canonical body %s took the json.Unmarshal path", want)
	}
	// Changing one bit of an X must miss the memo.
	for i := range rs {
		if len(rs[i].X) == 0 {
			continue
		}
		flipped := slices.Clone(rs)
		flipped[i].X = append([]float64(nil), rs[i].X...)
		flipped[i].X[0] = -flipped[i].X[0]
		want, _ := json.Marshal(flipped)
		got, err := AppendSolveResults(nil, flipped, memo)
		if err != nil || !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("after a sign flip the memo served %s, want %s", got, want)
		}
	}
}

// FuzzSolveResultsCodec checks both directions against encoding/json:
// arbitrary bytes decode to json.Unmarshal's values or fail with it, and
// results built from the bytes encode to json.Marshal's bytes.
func FuzzSolveResultsCodec(f *testing.F) {
	t := true
	canonical, _ := json.Marshal([]SolveResult{
		{Kind: "safe", Omega: 0.5, Micros: 12, X: []float64{0.25, 1e-7, math.Copysign(0, -1), 5e-324}},
		{Kind: "adaptive", Radius: 2, Omega: 1.5, PartyBound: 1.25, ResourceBound: 2, Certificate: 2.5,
			Achieved: &t, LocalLPs: 9, SolvesAvoided: 3, Micros: 40, X: []float64{1e21, 123.456}},
		{Kind: "certificate", Radius: 1, Omega: 0, PartyBound: 1.5, ResourceBound: 1.5, Certificate: 2.25},
	})
	for _, s := range []string{
		string(canonical), string(canonical) + "\n", "[]", "null", "", " []", "[] x", "[{}]",
		`[{"kind":"safe","omega":1,"micros":1}]`,
		`[{"kind":"safe","omega":1,"micros":1,"x":[]}]`,
		`[{"kind":"safe","omega":1,"micros":1,"x":null}]`,
		`[{"kind":"safe","omega":1,"micros":1,"x":[1,[2]]}]`,
		`[{"kind":"safe","omega":1,"micros":1,"x":[1.0,1E5,-0,0.10,1e-400,1e400]}]`,
		`[{"kind":"safe","omega":01,"micros":1}]`,
		`[{"kind":"safe","omega":1.,"micros":1}]`,
		`[{"kind":"safe","omega":.5,"micros":1}]`,
		`[{"kind":"safe","omega":+1,"micros":1}]`,
		`[{"kind":"safe","omega":Infinity,"micros":1}]`,
		`[{"kind":"safe","omega":0x10,"micros":1}]`,
		`[{"kind":"safe","omega":1_0,"micros":1}]`,
		`[{"kind":"safe","radius":1.5,"omega":1,"micros":1}]`,
		`[{"kind":"safe","radius":1e2,"omega":1,"micros":1}]`,
		`[{"kind":"safe","radius":-0,"omega":1,"micros":99999999999999999999}]`,
		`[{"kind":"safe","omega":1,"achieved":null,"micros":1}]`,
		`[{"kind":"\u0061","omega":1,"micros":1}]`,
		`[{"kind":"a","kind":"b","omega":1,"micros":1}]`,
		`[{"Kind":"safe","OMEGA":1,"micros":1}]`,
		`[{"omega":1,"kind":"safe","micros":1}]`,
		`[{"kind":"safe","omega":1,"micros":1}`,
		`[{"kind":"safe","omega":1,"micros":1,"x":[1,2`,
		"[{\"kind\":\"\x01\",\"omega\":1,\"micros\":1}]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkEncode(t, fuzzResults(data))
	})
}

// TestAppendSolveResultsSpecialValues runs every special float and
// every escaped kind through each field the encoder writes.
func TestAppendSolveResultsSpecialValues(t *testing.T) {
	for _, kind := range kinds {
		for _, v := range specialFloats {
			checkEncode(t, []SolveResult{{
				Kind: kind, Radius: -3, Omega: v, PartyBound: v, ResourceBound: -v, Certificate: v,
				LocalLPs: 1, Micros: -7, X: []float64{v, -v, 1},
			}})
		}
	}
	checkEncode(t, []SolveResult{})
	checkEncode(t, []SolveResult{{X: []float64{}}})
}

// TestXMemoCounts checks that a memo hits exactly when the content
// repeats, in both directions.
func TestXMemoCounts(t *testing.T) {
	reg := obs.NewRegistry()
	enc := &XMemo{Hit: reg.Counter("enc_hit", ""), Miss: reg.Counter("enc_miss", "")}
	dec := &XMemo{Hit: reg.Counter("dec_hit", ""), Miss: reg.Counter("dec_miss", "")}
	rs := []SolveResult{{Kind: "average", Radius: 1, Omega: 0.5, Micros: 3, X: []float64{0.5, 0.25}}}
	var bodies [][]byte
	for _, x := range [][]float64{{0.5, 0.25}, {0.5, 0.25}, {0.5, math.Copysign(0, -1)}, {0.5, 0}, {0.5, 0}} {
		rs[0].X = x
		body, err := AppendSolveResults(nil, rs, enc)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		got, err := DecodeSolveResults(body, dec)
		if err != nil || !sameBits(got[0].X, x) {
			t.Fatalf("decoded %v, %v; want %v", got, err, x)
		}
	}
	for _, c := range []struct {
		m         *XMemo
		hit, miss int64
	}{{enc, 2, 3}, {dec, 2, 3}} {
		if c.m.Hit.Value() != c.hit || c.m.Miss.Value() != c.miss {
			t.Errorf("memo counted %d hits, %d misses; want %d, %d", c.m.Hit.Value(), c.m.Miss.Value(), c.hit, c.miss)
		}
	}
	if bytes.Equal(bodies[2], bodies[3]) {
		t.Error("-0 and +0 encoded alike")
	}
}
