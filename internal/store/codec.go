// Package store implements the Provenance Tracker's filesystem format
// (Section 5.1): the tracker writes provenance-annotated tuples and the
// provenance graph to disk, and the Query Processor "starts by reading
// provenance-annotated tuples from disk and building the provenance
// graph". The primary format is a compact binary encoding (varints,
// length-prefixed strings); a JSON export is provided for interoperability
// and debugging.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lipstick/internal/nested"
)

// writer encodes the codec's primitives by appending them to buf: no
// per-byte interface call and no per-byte error check. A streaming
// writer (newWriter) spills buf to its io.Writer in spillBytes chunks and
// on flush; an in-memory writer (out nil) keeps every byte in buf, which
// is how EncodeRecords frames WAL records in place and writeV3 builds its
// value and outputs blobs. The only error a streaming writer meets is
// its sink's, kept from the first failed spill; event sets err for a
// kind it cannot encode.
type writer struct {
	buf []byte
	out io.Writer
	err error
}

// spillBytes is the chunk a streaming writer hands its io.Writer.
const spillBytes = 64 << 10

func newWriter(out io.Writer) *writer {
	return &writer{buf: make([]byte, 0, spillBytes), out: out}
}

// spill writes buf out once a streaming writer has a chunk's worth.
func (w *writer) spill() {
	if w.out != nil && len(w.buf) >= spillBytes {
		w.flush()
	}
}

// flush writes what a streaming writer holds and returns the first
// error the writer met.
func (w *writer) flush() error {
	if w.out != nil && len(w.buf) > 0 {
		if w.err == nil {
			_, w.err = w.out.Write(w.buf)
		}
		w.buf = w.buf[:0]
	}
	return w.err
}

func (w *writer) raw(b []byte) {
	w.buf = append(w.buf, b...)
	w.spill()
}

func (w *writer) byte(b byte) {
	w.buf = append(w.buf, b)
	w.spill()
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
	w.spill()
}

func (w *writer) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
	w.spill()
}

func (w *writer) str(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
	w.spill()
}

func (w *writer) f64(f float64) {
	w.uvarint(math.Float64bits(f))
}

// value encodes a nested value with a leading kind byte.
func (w *writer) value(v nested.Value) {
	w.byte(byte(v.Kind()))
	switch v.Kind() {
	case nested.KindNull:
	case nested.KindBool:
		if v.AsBool() {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case nested.KindInt:
		w.varint(v.AsInt())
	case nested.KindFloat:
		w.f64(v.AsFloat())
	case nested.KindString:
		w.str(v.AsString())
	case nested.KindTuple:
		w.tuple(v.AsTuple())
	case nested.KindBag:
		bag := v.AsBag()
		w.uvarint(uint64(len(bag.Tuples)))
		for _, t := range bag.Tuples {
			w.tuple(t)
		}
	}
}

func (w *writer) tuple(t *nested.Tuple) {
	w.uvarint(uint64(len(t.Fields)))
	for _, f := range t.Fields {
		w.value(f)
	}
}

// byteReader is the reader the codec decodes from: sequential reads plus
// single-byte reads for varints. *bufio.Reader and *bytes.Reader both
// satisfy it, so the v3 value blob can be decoded per value without
// allocating a buffered wrapper.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// reader wraps a byte source with varint helpers and bounded allocation.
type reader struct {
	r byteReader
}

func newReader(r io.Reader) *reader {
	if br, ok := r.(byteReader); ok {
		return &reader{r: br}
	}
	return &reader{r: bufio.NewReader(r)}
}

func (r *reader) byte() (byte, error) { return r.r.ReadByte() }

func (r *reader) uvarint() (uint64, error) { return binary.ReadUvarint(r.r) }

func (r *reader) varint() (int64, error) { return binary.ReadVarint(r.r) }

// maxLen bounds length prefixes to catch corrupted files before huge
// allocations.
const maxLen = 1 << 28

// capHint bounds a preallocation sized by a count read from the input:
// a lying count must fail at the input's end, not reserve gigabytes
// first. A slice made with it grows by append past the hint.
func capHint(n uint64) int { return int(min(n, 4096)) }

// readN reads exactly n bytes, n taken from the input. The buffer starts
// at capHint(n) and doubles, so a lying length fails at the input's end
// instead of reserving n bytes first, a true long one pays a few
// regrowths, and n <= 4096 costs one allocation of n bytes.
func readN(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, capHint(n))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if off = len(buf); uint64(off) == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-uint64(off), uint64(off)))...)
	}
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("store: string length %d exceeds limit", n)
	}
	buf, err := readN(r.r, n)
	return string(buf), err
}

func (r *reader) f64() (float64, error) {
	bits, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

func (r *reader) value() (nested.Value, error) {
	kind, err := r.byte()
	if err != nil {
		return nested.Null(), err
	}
	switch nested.Kind(kind) {
	case nested.KindNull:
		return nested.Null(), nil
	case nested.KindBool:
		b, err := r.byte()
		if err != nil {
			return nested.Null(), err
		}
		return nested.Bool(b != 0), nil
	case nested.KindInt:
		v, err := r.varint()
		if err != nil {
			return nested.Null(), err
		}
		return nested.Int(v), nil
	case nested.KindFloat:
		f, err := r.f64()
		if err != nil {
			return nested.Null(), err
		}
		return nested.Float(f), nil
	case nested.KindString:
		s, err := r.str()
		if err != nil {
			return nested.Null(), err
		}
		return nested.Str(s), nil
	case nested.KindTuple:
		t, err := r.tuple()
		if err != nil {
			return nested.Null(), err
		}
		return nested.TupleVal(t), nil
	case nested.KindBag:
		n, err := r.uvarint()
		if err != nil {
			return nested.Null(), err
		}
		if n > maxLen {
			return nested.Null(), fmt.Errorf("store: bag length %d exceeds limit", n)
		}
		bag := nested.NewBag()
		for i := uint64(0); i < n; i++ {
			t, err := r.tuple()
			if err != nil {
				return nested.Null(), err
			}
			bag.Add(t)
		}
		return nested.BagVal(bag), nil
	default:
		return nested.Null(), fmt.Errorf("store: invalid value kind %d", kind)
	}
}

func (r *reader) tuple() (*nested.Tuple, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("store: tuple arity %d exceeds limit", n)
	}
	fields := make([]nested.Value, 0, capHint(n))
	for i := uint64(0); i < n; i++ {
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		fields = append(fields, v)
	}
	return nested.NewTuple(fields...), nil
}
