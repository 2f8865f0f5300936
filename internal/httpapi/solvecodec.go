package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"

	"maxminlp/internal/obs"
)

// The solve-response codec. A served answer is mostly its X vectors, and
// formatting and parsing their floats dominates a warm read on both ends
// of the wire, so []SolveResult has a hand-written codec: an encoder that
// writes exactly the bytes encoding/json writes, and a decoder for that
// shape that hands every other input to encoding/json, which stays the
// reference for both directions (FuzzSolveResultsCodec).

// AppendSolveResults appends the JSON encoding of rs to dst followed by a
// newline: byte for byte what json.NewEncoder(w).Encode(rs) writes (field
// order, omitempty, HTML-escaped strings, the 'f'/'e' float switch). A
// non-finite float is an error, as in encoding/json; dst's bytes past its
// original length are then unspecified. memo may be nil; otherwise an X
// equal bit for bit to the vector memo holds for its (kind, radius) is
// copied from memo's text rather than formatted, and a new X replaces it.
func AppendSolveResults(dst []byte, rs []SolveResult, memo *XMemo) ([]byte, error) {
	if rs == nil {
		return append(dst, "null\n"...), nil
	}
	// Room for every float at its longest, so the body is built without
	// reallocating.
	n := 2
	for i := range rs {
		n += 256 + 26*len(rs[i].X)
	}
	e := encoder{b: append(slices.Grow(dst, n), '[')}
	for i := range rs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.result(&rs[i], memo)
	}
	e.b = append(e.b, "]\n"...)
	return e.b, e.err
}

// encoder appends JSON to b; the first unsupported value sticks in err.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) result(r *SolveResult, memo *XMemo) {
	e.b = append(e.b, `{"kind":`...)
	e.string(r.Kind)
	e.optInt(`,"radius":`, r.Radius)
	e.b = append(e.b, `,"omega":`...)
	e.float(r.Omega)
	e.optFloat(`,"partyBound":`, r.PartyBound)
	e.optFloat(`,"resourceBound":`, r.ResourceBound)
	e.optFloat(`,"certificate":`, r.Certificate)
	if r.Achieved != nil {
		e.b = append(e.b, `,"achieved":`...)
		e.b = strconv.AppendBool(e.b, *r.Achieved)
	}
	e.optInt(`,"localLPs":`, r.LocalLPs)
	e.optInt(`,"solvesAvoided":`, r.SolvesAvoided)
	e.b = append(e.b, `,"micros":`...)
	e.b = strconv.AppendInt(e.b, r.Micros, 10)
	if len(r.X) > 0 {
		e.b = append(e.b, `,"x":`...)
		memo.appendX(e, r.Kind, r.Radius, r.X)
	}
	e.b = append(e.b, '}')
}

// string writes s as encoding/json does. Strings of printable ASCII that
// need no escape (every solve kind) are copied; anything else is left to
// encoding/json, whose escaping rules then hold by construction.
func (e *encoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *encoder) optInt(name string, v int) {
	if v != 0 {
		e.b = append(e.b, name...)
		e.b = strconv.AppendInt(e.b, int64(v), 10)
	}
}

func (e *encoder) optFloat(name string, f float64) {
	if f != 0 { // omitempty drops both zeros
		e.b = append(e.b, name...)
		e.float(f)
	}
}

// float writes f as encoding/json's float64 encoder does: the shortest
// round-tripping digits, in 'e' form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded (e-7, not e-07).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *encoder) floats(x []float64) {
	e.b = append(e.b, '[')
	for i, f := range x {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// DecodeSolveResults parses a solve response body. The shape
// AppendSolveResults writes (fields in its order, no whitespace inside
// the value) is parsed directly, with every number checked against the
// JSON grammar before strconv reads it; any other input goes to
// json.Unmarshal, so the result (and whether there is an error) is always
// json.Unmarshal's. memo may be nil; otherwise an X whose text equals the
// text memo holds for its (kind, radius) is returned as a copy of memo's
// vector rather than parsed, and a newly parsed X replaces it.
func DecodeSolveResults(data []byte, memo *XMemo) ([]SolveResult, error) {
	if rs, ok := decodeCanonical(data, memo); ok {
		return rs, nil
	}
	var rs []SolveResult
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// decoder walks a canonical body; any departure from the shape makes
// its caller give up, never guess.
type decoder struct {
	b   []byte
	pos int
}

func decodeCanonical(data []byte, memo *XMemo) ([]SolveResult, bool) {
	d := decoder{b: data}
	if !d.lit("[") {
		return nil, false
	}
	rs := []SolveResult{}
	if !d.lit("]") {
		for {
			rs = append(rs, SolveResult{})
			if !d.result(&rs[len(rs)-1], memo) {
				return nil, false
			}
			if d.lit("]") {
				break
			}
			if !d.lit(",") {
				return nil, false
			}
		}
	}
	for _, c := range d.b[d.pos:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return nil, false
		}
	}
	return rs, true
}

func (d *decoder) result(r *SolveResult, memo *XMemo) bool {
	var ok bool
	if !d.lit(`{"kind":`) {
		return false
	}
	if r.Kind, ok = d.str(); !ok {
		return false
	}
	if d.lit(`,"radius":`) && !d.int(&r.Radius) {
		return false
	}
	if !d.lit(`,"omega":`) || !d.float(&r.Omega) {
		return false
	}
	if d.lit(`,"partyBound":`) && !d.float(&r.PartyBound) {
		return false
	}
	if d.lit(`,"resourceBound":`) && !d.float(&r.ResourceBound) {
		return false
	}
	if d.lit(`,"certificate":`) && !d.float(&r.Certificate) {
		return false
	}
	if d.lit(`,"achieved":`) {
		v := d.lit("true")
		if !v && !d.lit("false") {
			return false
		}
		r.Achieved = &v
	}
	if d.lit(`,"localLPs":`) && !d.int(&r.LocalLPs) {
		return false
	}
	if d.lit(`,"solvesAvoided":`) && !d.int(&r.SolvesAvoided) {
		return false
	}
	if !d.lit(`,"micros":`) {
		return false
	}
	if r.Micros, ok = d.integer(64); !ok {
		return false
	}
	if d.lit(`,"x":[`) {
		// A valid X holds no nested array, so its text ends at the first
		// ']'; if that span is not a float array, parsing it fails.
		end := bytes.IndexByte(d.b[d.pos:], ']')
		if end < 0 {
			return false
		}
		raw := d.b[d.pos-1 : d.pos+end+1]
		if r.X, ok = memo.parseX(r.Kind, r.Radius, raw); !ok {
			return false
		}
		d.pos += end + 1
	}
	return d.lit("}")
}

func (d *decoder) lit(s string) bool {
	if len(d.b)-d.pos < len(s) || string(d.b[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// str reads a string of printable ASCII without escapes.
func (d *decoder) str() (string, bool) {
	if !d.lit(`"`) {
		return "", false
	}
	for i := d.pos; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := string(d.b[d.pos:i])
			d.pos = i + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
		}
	}
	return "", false
}

// number scans one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (d *decoder) number() ([]byte, bool) {
	b, i := d.b, d.pos
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	s := b[d.pos:i]
	d.pos = i
	return s, true
}

func (d *decoder) float(f *float64) bool {
	s, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(s), 64)
	*f = v
	return err == nil
}

// integer reads a number that encoding/json accepts for a bits-wide Go
// integer: no fraction or exponent, and in range.
func (d *decoder) integer(bits int) (int64, bool) {
	s, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(s), 10, bits)
	return v, err == nil
}

func (d *decoder) int(v *int) bool {
	n, ok := d.integer(strconv.IntSize)
	*v = int(n)
	return ok
}

// parseFloats parses raw, the text of a nonempty JSON array of numbers
// from its '[' to its first ']'.
func parseFloats(raw []byte) ([]float64, bool) {
	x := make([]float64, 0, bytes.Count(raw, []byte{','})+1)
	d := decoder{b: raw, pos: 1}
	for {
		var f float64
		if !d.float(&f) {
			return nil, false
		}
		x = append(x, f)
		if d.lit("]") {
			return x, true
		}
		if !d.lit(",") {
			return nil, false
		}
	}
}

// XMemo remembers, per (kind, radius), the last solution vector X the
// codec met and its JSON text, so that a repeated X is copied rather than
// formatted (AppendSolveResults: equal bits) or parsed
// (DecodeSolveResults: equal text). An entry always pairs a vector with
// the exact text it encodes to, and a hit needs equal content, so the key
// decides only what can hit, never what is served: no entry goes stale
// and nothing needs invalidating. A memo serves one direction: a decoded
// text need not be the canonical encoding of its vector. The zero value
// is ready to use, and a memo is safe for concurrent use. Hit and Miss,
// when set, count lookups.
type XMemo struct {
	Hit, Miss *obs.Counter

	mu sync.Mutex
	m  map[xKey]*xEntry
}

type xKey struct {
	kind   string
	radius int
}

type xEntry struct {
	x   []float64
	raw []byte
}

// appendX writes x as a JSON array, from the memo's text when x matches
// its vector bit for bit.
func (m *XMemo) appendX(e *encoder, kind string, radius int, x []float64) {
	if m == nil {
		e.floats(x)
		return
	}
	k := xKey{kind, radius}
	m.mu.Lock()
	if en := m.m[k]; en != nil && sameBits(en.x, x) {
		e.b = append(e.b, en.raw...)
		m.mu.Unlock()
		m.Hit.Inc()
		return
	}
	m.mu.Unlock()
	m.Miss.Inc()
	start, failed := len(e.b), e.err != nil
	e.floats(x)
	if !failed && e.err == nil {
		m.store(k, x, e.b[start:])
	}
}

// parseX parses raw as a nonempty JSON array of numbers, returning a copy
// of the memo's vector when raw equals its text.
func (m *XMemo) parseX(kind string, radius int, raw []byte) ([]float64, bool) {
	if m == nil {
		return parseFloats(raw)
	}
	k := xKey{kind, radius}
	m.mu.Lock()
	if en := m.m[k]; en != nil && bytes.Equal(en.raw, raw) {
		x := slices.Clone(en.x)
		m.mu.Unlock()
		m.Hit.Inc()
		return x, true
	}
	m.mu.Unlock()
	m.Miss.Inc()
	x, ok := parseFloats(raw)
	if ok {
		m.store(k, x, raw)
	}
	return x, ok
}

// store copies x and its text into the memo; neither is retained.
func (m *XMemo) store(k xKey, x []float64, raw []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[xKey]*xEntry)
	}
	en := m.m[k]
	if en == nil {
		en = new(xEntry)
		m.m[k] = en
	}
	en.x = append(en.x[:0], x...)
	en.raw = append(en.raw[:0], raw...)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
