// Package lpcorpus is the golden LP corpus: linear programs stored with
// the exact outcome the float64 simplex produced for them — status, pivot
// count, and the Float64bits of X, Value and Duals — so that a change to
// the solver can be held to every output bit, signed zeros included.
//
// The corpus file is gzip-compressed binary. Coefficients and right-hand
// sides go through one shared table of distinct float64 bit patterns
// (ball LPs of one instance reuse the same weights many times); recorded
// outcomes are stored as raw bits.
package lpcorpus

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"maxminlp/internal/lp"
)

// Record is one LP and the outcome recorded for it.
type Record struct {
	Name    string
	Rule    lp.PivotRule
	Problem *lp.Problem
	Failed  bool // the solve returned an error (lp.ErrNumerical)
	Status  lp.Status
	Pivots  int
	// Float64bits of the solution; set only when Status is lp.Optimal.
	X     []uint64
	Value uint64
	Duals []uint64
}

// Capture solves p with rule through the one-shot lp.SolveWithRule and
// records the outcome.
func Capture(name string, p *lp.Problem, rule lp.PivotRule) Record {
	sol, err := lp.SolveWithRule(p, rule)
	rec := Record{Name: name, Rule: rule, Problem: p}
	if err != nil {
		rec.Failed = true
		return rec
	}
	rec.Status, rec.Pivots = sol.Status, sol.Pivots
	if sol.Status == lp.Optimal {
		rec.X = bitsOf(sol.X)
		rec.Value = math.Float64bits(sol.Value)
		rec.Duals = bitsOf(sol.Duals())
	}
	return rec
}

// Mismatch compares a solve of r.Problem with the recorded outcome and
// describes the first difference, or returns "" when every recorded bit
// matches.
func (r *Record) Mismatch(sol lp.Solution, err error) string {
	if r.Failed || err != nil {
		if r.Failed && err != nil {
			return ""
		}
		return fmt.Sprintf("error %v, recorded failed=%v", err, r.Failed)
	}
	if sol.Status != r.Status || sol.Pivots != r.Pivots {
		return fmt.Sprintf("(status, pivots) = (%v, %d), recorded (%v, %d)", sol.Status, sol.Pivots, r.Status, r.Pivots)
	}
	if r.Status != lp.Optimal {
		return ""
	}
	if got := math.Float64bits(sol.Value); got != r.Value {
		return fmt.Sprintf("Value bits %#x (%v), recorded %#x (%v)", got, sol.Value, r.Value, math.Float64frombits(r.Value))
	}
	if s := bitsMismatch("X", sol.X, r.X); s != "" {
		return s
	}
	return bitsMismatch("Duals", sol.Duals(), r.Duals)
}

func bitsMismatch(what string, got []float64, want []uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len(%s) = %d, recorded %d", what, len(got), len(want))
	}
	for i, v := range got {
		if b := math.Float64bits(v); b != want[i] {
			return fmt.Sprintf("%s[%d] bits %#x (%v), recorded %#x (%v)", what, i, b, v, want[i], math.Float64frombits(want[i]))
		}
	}
	return ""
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

const magic = "LPC1"

// Write encodes recs as a gzip-compressed corpus.
func Write(w io.Writer, recs []Record) error {
	// The value table lists every distinct coefficient/rhs bit pattern in
	// first-use order; +0.0 entries are implicit (sparse rows), −0.0 is
	// stored like any other value.
	index := map[uint64]uint64{}
	var table []uint64
	intern := func(v float64) {
		b := math.Float64bits(v)
		if _, ok := index[b]; !ok {
			index[b] = uint64(len(table))
			table = append(table, b)
		}
	}
	for _, r := range recs {
		for _, v := range r.Problem.Obj {
			intern(v)
		}
		for _, c := range r.Problem.Constraints {
			intern(c.RHS)
			for _, v := range c.Coeffs {
				intern(v)
			}
		}
	}

	zw := gzip.NewWriter(w)
	e := &encoder{w: bufio.NewWriter(zw)}
	e.bytes([]byte(magic))
	e.uvarint(uint64(len(table)))
	for _, b := range table {
		e.u64(b)
	}
	e.uvarint(uint64(len(recs)))
	sparse := func(v []float64) {
		nnz := 0
		for _, x := range v {
			if math.Float64bits(x) != 0 {
				nnz++
			}
		}
		e.uvarint(uint64(nnz))
		next := 0
		for j, x := range v {
			if math.Float64bits(x) != 0 {
				e.uvarint(uint64(j - next))
				e.uvarint(index[math.Float64bits(x)])
				next = j + 1
			}
		}
	}
	for _, r := range recs {
		e.uvarint(uint64(len(r.Name)))
		e.bytes([]byte(r.Name))
		var flags byte
		if r.Problem.Minimize {
			flags |= 1
		}
		if r.Failed {
			flags |= 2
		}
		e.bytes([]byte{byte(r.Rule), flags, byte(r.Status)})
		e.uvarint(uint64(r.Pivots))
		p := r.Problem
		e.uvarint(uint64(len(p.Obj)))
		sparse(p.Obj)
		e.uvarint(uint64(len(p.Constraints)))
		for _, c := range p.Constraints {
			e.bytes([]byte{byte(c.Rel)})
			e.uvarint(index[math.Float64bits(c.RHS)])
			sparse(c.Coeffs)
		}
		if r.Status == lp.Optimal && !r.Failed {
			e.u64(r.Value)
			e.uvarint(uint64(len(r.X)))
			for _, b := range r.X {
				e.u64(b)
			}
			e.uvarint(uint64(len(r.Duals)))
			for _, b := range r.Duals {
				e.u64(b)
			}
		}
	}
	if e.err != nil {
		return e.err
	}
	if err := e.w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// Read decodes a corpus written by Write.
func Read(r io.Reader) ([]Record, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	d := &decoder{r: bufio.NewReader(zr)}
	if string(d.bytes(len(magic))) != magic {
		return nil, errors.New("lpcorpus: bad magic")
	}
	table := make([]float64, d.count())
	for i := range table {
		table[i] = math.Float64frombits(d.u64())
	}
	value := func() float64 {
		i := d.uvarint()
		if i >= uint64(len(table)) {
			d.fail(fmt.Errorf("lpcorpus: value index %d out of range", i))
			return 0
		}
		return table[i]
	}
	sparse := func(v []float64) {
		nnz := d.count()
		next := 0
		for k := 0; k < nnz && d.err == nil; k++ {
			j := next + int(d.uvarint())
			if j >= len(v) {
				d.fail(fmt.Errorf("lpcorpus: column %d out of range", j))
				return
			}
			v[j] = value()
			next = j + 1
		}
	}
	bitsList := func() []uint64 {
		out := make([]uint64, d.count())
		for i := range out {
			out[i] = d.u64()
		}
		return out
	}
	recs := make([]Record, d.count())
	for i := range recs {
		if d.err != nil {
			break
		}
		rec := &recs[i]
		rec.Name = string(d.bytes(d.count()))
		hdr := d.bytes(3)
		if d.err != nil {
			break
		}
		rec.Rule, rec.Status = lp.PivotRule(hdr[0]), lp.Status(hdr[2])
		rec.Failed = hdr[1]&2 != 0
		rec.Pivots = int(d.uvarint())
		p := &lp.Problem{Minimize: hdr[1]&1 != 0, Obj: make([]float64, d.count())}
		sparse(p.Obj)
		p.Constraints = make([]lp.Constraint, d.count())
		for ci := range p.Constraints {
			c := &p.Constraints[ci]
			c.Rel = lp.Rel(d.bytes(1)[0])
			c.RHS = value()
			c.Coeffs = make([]float64, len(p.Obj))
			sparse(c.Coeffs)
		}
		rec.Problem = p
		if rec.Status == lp.Optimal && !rec.Failed {
			rec.Value = d.u64()
			rec.X = bitsList()
			rec.Duals = bitsList()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return recs, nil
}

// Filter returns the records whose name starts with prefix.
func Filter(recs []Record, prefix string) []Record {
	var out []Record
	for _, r := range recs {
		if strings.HasPrefix(r.Name, prefix) {
			out = append(out, r)
		}
	}
	return out
}

type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) uvarint(v uint64) { e.bytes(binary.AppendUvarint(e.buf[:0], v)) }

func (e *encoder) u64(v uint64) { e.bytes(binary.LittleEndian.AppendUint64(e.buf[:0], v)) }

type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) bytes(n int) []byte {
	b := make([]byte, n)
	if d.err == nil {
		_, err := io.ReadFull(d.r, b)
		d.fail(err)
	}
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.fail(err)
	return v
}

func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.bytes(8)) }

// count reads a length prefix and bounds it so a corrupt file cannot
// request an absurd allocation.
func (d *decoder) count() int {
	v := d.uvarint()
	if v > 1<<24 {
		d.fail(fmt.Errorf("lpcorpus: length %d out of range", v))
		return 0
	}
	return int(v)
}
