package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/bits"
)

// This file reads /v1/classify and /v1/distinguish bodies. One pass
// over the bytes checks the JSON grammar and writes every feature row
// straight into word-aligned packed words (bit i of a row at bit i%64
// of word i/64, the layout of bits.PackFloats): no float64 is built
// for a row on the way in.
//
// The body is one JSON object; its members match their names by case
// folding (bytes.EqualFold on the unescaped key), a repeated member
// keeps its last value, and unknown members are skipped after their
// grammar is checked — all as encoding/json would decode it:
//
//	model   string          the registry name
//	rows    [[0/1, ...], …] feature rows as JSON numbers equal to 0 or 1
//	                        (so 1.0, 1e0, -0 and 0E5 are bits)
//	hex     ["…", …]        feature rows as bits.Hex of the feature bytes
//	labels  [int, …]        distinguish only: the class of each query
//	sigmas  number          distinguish only: the decision threshold
//
// Exactly one of rows and hex must be non-empty. Two bodies that
// encoding/json would accept are refused: a null where a bit or a label
// belongs (it would decode as 0), and any data after the object.

// MaxBody bounds every request body the serving layer reads, at a
// replica and at the cluster router alike, so every body the router
// forwards fits at the replica.
const MaxBody = 16 << 20

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// ReadBody reads r's body, at most MaxBody bytes. On error it writes
// 413 for an oversized body or 400 for a failed read and returns false.
// The buffer is sized from Content-Length, so a well-formed request
// reads into one allocation; the size is capped at 1 MiB so that the
// header alone cannot commit MaxBody of memory before a byte arrives.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	n := int64(512)
	if r.ContentLength > 0 {
		n = min(r.ContentLength, 1<<20)
	}
	body := http.MaxBytesReader(w, r.Body, MaxBody)
	b := make([]byte, 0, n+1) // +1: the final read sees EOF without growing
	for {
		m, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, true
		}
		if err != nil {
			writeBodyError(w, err)
			return nil, false
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// RequestModel returns the "model" member of a classify or distinguish
// body without decoding anything else: every other value is skipped
// once its grammar is checked. It answers as json.Unmarshal into
// struct{ Model string } does: the same name (null leaves it empty) and
// an error for malformed JSON, trailing data, a body that is neither an
// object nor null, or a model that is not a string.
func RequestModel(body []byte) (string, error) {
	s := scanner{b: body}
	var model string
	err := s.document(func(key []byte, simple bool) error {
		if keyIs(key, simple, "model") {
			return s.stringValue(&model)
		}
		return s.skip(2)
	})
	if err != nil {
		return "", err
	}
	return model, nil
}

// request is a scanned classify or distinguish body.
type request struct {
	model   string
	rows    rowSet // the "rows" member
	hex     rowSet // the "hex" member
	labels  []int  // the first maxBatch labels
	nLabels int    // labels in the body
	nullAt  int    // index of the first null label, or -1
	sigmas  float64
}

// rowSet is one "rows" or "hex" array, packed as it is scanned. Rows
// past maxBatch, and rows after one whose width differs from row 0's,
// are counted and checked but not stored: such an array fails the
// request (413 or 400) unless a later occurrence of its member
// replaces it, as encoding/json keeps the last. That is why the 413
// waits for the end of the body.
type rowSet struct {
	packed []uint64
	n      int   // rows in the array
	width  int   // row 0's width: features (rows) or bytes (hex)
	odd    int   // first row whose width differs from row 0's, or -1
	oddLen int   // that row's width
	err    error // first value that is not a bit or not hex
}

func (r *rowSet) reset() {
	*r = rowSet{packed: r.packed[:0], odd: -1}
}

// endRow records the width of row i.
func (r *rowSet) endRow(i, width int) {
	if i == 0 {
		r.width = width
	} else if width != r.width && r.odd < 0 {
		r.odd, r.oddLen = i, width
	}
}

func (r *rowSet) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// scanRequest scans a classify or distinguish body. Its error is the
// 400 for a body that is not well-formed JSON or that holds a value of
// the wrong type; the checks that need the model come after, in
// request.resolve.
func scanRequest(body []byte, maxBatch int) (*request, error) {
	req := &request{nullAt: -1}
	s := scanner{b: body}
	err := s.document(func(key []byte, simple bool) error {
		switch {
		case keyIs(key, simple, "model"):
			return s.stringValue(&req.model)
		case keyIs(key, simple, "rows"):
			return s.rowArray(&req.rows, maxBatch, s.floatRow)
		case keyIs(key, simple, "hex"):
			return s.rowArray(&req.hex, maxBatch, s.hexRow)
		case keyIs(key, simple, "labels"):
			return s.labels(req, maxBatch)
		case keyIs(key, simple, "sigmas"):
			return s.sigmas(&req.sigmas)
		}
		return s.skip(2)
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// resolve checks the scanned rows against the model and the batch cap,
// in the order the handler has always answered: which of rows and hex,
// then the row count (413), then each row's bits and width (400). It
// returns the rows to serve, PackedWords(featLen) words each, or the
// status and error to answer with.
func (req *request) resolve(entry *Entry, maxBatch int) (*rowSet, int, error) {
	if (req.rows.n == 0) == (req.hex.n == 0) {
		return nil, http.StatusBadRequest, errors.New("exactly one of rows or hex must be non-empty")
	}
	rs, hex := &req.rows, false
	if req.hex.n > 0 {
		rs, hex = &req.hex, true
	}
	if rs.n > maxBatch {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request has %d rows, max %d per request (split the batch)", rs.n, maxBatch)
	}
	if rs.err != nil {
		return nil, http.StatusBadRequest, rs.err
	}
	featLen := entry.FeatureLen()
	want := featLen
	if hex {
		want = (featLen + 7) / 8
	}
	row, width := 0, rs.width
	if width == want && rs.odd >= 0 {
		row, width = rs.odd, rs.oddLen
	}
	switch {
	case width == want:
		return rs, http.StatusOK, nil
	case hex:
		return nil, http.StatusBadRequest,
			fmt.Errorf("hex row %d has %d bytes, want %d (%d feature bits)", row, width, want, featLen)
	default:
		return nil, http.StatusBadRequest,
			fmt.Errorf("row %d has %d features, model %q wants %d", row, width, entry.Name, featLen)
	}
}

// scanner walks a JSON body. Its methods start at the first byte of a
// value (whitespace already skipped) and leave s.i just past it.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) syntax(context string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", s.b[s.i], context, s.i)
}

func (s *scanner) typeError(what string) error {
	return fmt.Errorf("%s at offset %d", what, s.i)
}

// document scans the whole body: one object, or null (no members), and
// nothing after it but whitespace.
func (s *scanner) document(member func(key []byte, simple bool) error) error {
	s.ws()
	var err error
	switch s.peek() {
	case '{':
		err = s.object(member)
	case 'n':
		err = s.lit("null")
	default:
		if err = s.skip(1); err == nil {
			err = errors.New("body is not a JSON object")
		}
	}
	if err != nil {
		return err
	}
	s.ws()
	if s.i < len(s.b) {
		return fmt.Errorf("invalid character %q after the JSON body at offset %d", s.b[s.i], s.i)
	}
	return nil
}

// object scans the object at s.i, calling member at each member's value
// with its key token (quotes included).
func (s *scanner) object(member func(key []byte, simple bool) error) error {
	s.i++
	s.ws()
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		if s.peek() != '"' {
			return s.syntax("looking for an object key")
		}
		key, simple, err := s.str()
		if err != nil {
			return err
		}
		s.ws()
		if s.peek() != ':' {
			return s.syntax("after an object key")
		}
		s.i++
		s.ws()
		if err := member(key, simple); err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.i++
			s.ws()
		case '}':
			s.i++
			return nil
		default:
			return s.syntax("after an object member")
		}
	}
}

// array scans the array at s.i, calling elem at each element.
func (s *scanner) array(elem func(i int) error) error {
	s.i++
	s.ws()
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.i++
			s.ws()
		case ']':
			s.i++
			return nil
		default:
			return s.syntax("after an array element")
		}
	}
}

// skip checks and steps over one value; depth counts the arrays and
// objects it would be nested in, itself included.
func (s *scanner) skip(depth int) error {
	switch c := s.peek(); {
	case c == '{' || c == '[':
		if depth > maxDepth {
			return s.syntax("exceeding the maximum nesting depth")
		}
		if c == '{' {
			return s.object(func([]byte, bool) error { return s.skip(depth + 1) })
		}
		return s.skipArray(depth)
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || c >= '0' && c <= '9':
		_, err := s.num()
		return err
	case c == 't':
		return s.lit("true")
	case c == 'f':
		return s.lit("false")
	case c == 'n':
		return s.lit("null")
	}
	return s.syntax("looking for the beginning of a value")
}

// skipArray is array with skip for every element, written out: the
// router skips every float row of a classify body, and a one-digit
// number with its delimiter, the elements of such a row, is stepped
// over in one move.
func (s *scanner) skipArray(depth int) error {
	s.i++
	s.ws()
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		var c byte // the delimiter after the element
		if k := s.i; k+1 < len(s.b) && s.b[k]-'0' <= 9 && (s.b[k+1] == ',' || s.b[k+1] == ']') {
			c, s.i = s.b[k+1], k+2
		} else {
			s.ws()
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			s.ws()
			if c = s.peek(); c != ',' && c != ']' {
				return s.syntax("after an array element")
			}
			s.i++
		}
		if c == ']' {
			return nil
		}
	}
}

// lit steps over the literal word.
func (s *scanner) lit(word string) error {
	if !bytes.HasPrefix(s.b[s.i:], []byte(word)) {
		return s.syntax("in literal " + word)
	}
	s.i += len(word)
	return nil
}

// str steps over the string at s.i and returns its token, quotes
// included. simple reports that the token holds no escape and no
// non-ASCII byte, so the bytes between the quotes are its value.
func (s *scanner) str() (tok []byte, simple bool, err error) {
	start := s.i
	simple = true
	for s.i++; s.i < len(s.b); s.i++ {
		if plainByte[s.b[s.i]] {
			continue
		}
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start:s.i], simple, nil
		case c == '\\':
			simple = false
			s.i++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					s.i++
					if hexNibble[s.peek()] > 0xf {
						return nil, false, s.syntax("in a \\u escape")
					}
				}
			default:
				return nil, false, s.syntax("in a string escape")
			}
		case c < 0x20:
			return nil, false, s.syntax("in a string literal")
		case c >= 0x80:
			simple = false
		}
	}
	return nil, false, s.syntax("in a string literal")
}

// plainByte marks the bytes a string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// num steps over the number at s.i and returns its token.
func (s *scanner) num() ([]byte, error) {
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case c >= '1' && c <= '9':
		s.digits()
	default:
		return nil, s.syntax("in a number")
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return nil, s.syntax("after a decimal point")
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil, s.syntax("in an exponent")
		}
	}
	return s.b[start:s.i], nil
}

// float scans the number at s.i and returns its float64 value.
func (s *scanner) float() (float64, error) {
	tok, err := s.num()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(tok), 64)
}

// digits steps over a run of decimal digits and reports whether there
// was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// stringValue scans a string member into dst; null leaves dst as it
// was, as encoding/json leaves a string field.
func (s *scanner) stringValue(dst *string) error {
	switch s.peek() {
	case '"':
		tok, simple, err := s.str()
		if err != nil {
			return err
		}
		*dst, err = unquote(tok, simple)
		return err
	case 'n':
		return s.lit("null")
	}
	return s.typeError("model must be a string")
}

// unquote returns the value of a string token. A token with an escape
// or a non-ASCII byte goes through encoding/json, which also replaces
// invalid UTF-8 as a full decode would.
func unquote(tok []byte, simple bool) (string, error) {
	if simple {
		return string(tok[1 : len(tok)-1]), nil
	}
	var v string
	err := json.Unmarshal(tok, &v)
	return v, err
}

// keyIs reports whether the key token names field (an ASCII lower-case
// name) under case folding.
func keyIs(key []byte, simple bool, field string) bool {
	if simple {
		return bytes.EqualFold(key[1:len(key)-1], []byte(field))
	}
	k, err := unquote(key, false)
	return err == nil && bytes.EqualFold([]byte(k), []byte(field))
}

// rowArray scans a "rows" or "hex" member into r, which it resets: the
// last occurrence of the member wins. row scans element i.
func (s *scanner) rowArray(r *rowSet, maxBatch int, row func(r *rowSet, i int, store bool) error) error {
	r.reset()
	switch s.peek() {
	case 'n':
		return s.lit("null")
	case '[':
		return s.array(func(i int) error {
			r.n++
			start, store := s.i, i < maxBatch && r.odd < 0
			if err := row(r, i, store); err != nil {
				return err
			}
			if i == 0 && store {
				// The rows of a request are alike: make room for as many
				// as the rest of the body can hold.
				more := min(maxBatch-1, (len(s.b)-s.i)/(s.i-start))
				r.packed = slices.Grow(r.packed, more*len(r.packed))
			}
			return nil
		})
	}
	return s.typeError("rows and hex must be arrays")
}

// floatRow scans float row i, packing it when store is set. A null row
// is an empty one, as encoding/json decodes it.
func (s *scanner) floatRow(r *rowSet, i int, store bool) error {
	switch s.peek() {
	case 'n':
		r.endRow(i, 0)
		return s.lit("null")
	case '[':
	default:
		return s.typeError(fmt.Sprintf("row %d is not an array", i))
	}
	s.i++
	s.ws()
	var word uint64
	j := 0
	more := s.peek() != ']'
	if !more {
		s.i++
	}
	for more {
		var c byte // the delimiter after element j
		if k := s.i; k+1 < len(s.b) && s.b[k]|1 == '1' && (s.b[k+1] == ',' || s.b[k+1] == ']') {
			// The common spelling: a bare 0 or 1 and its delimiter.
			word |= uint64(s.b[k]&1) << (j & 63)
			c, s.i = s.b[k+1], k+2
		} else {
			s.ws()
			if err := s.bit(r, i, j, &word); err != nil {
				return err
			}
			s.ws()
			if c = s.peek(); c != ',' && c != ']' {
				return s.syntax("after an array element")
			}
			s.i++
		}
		if j++; j&63 == 0 {
			if store {
				r.packed = append(r.packed, word)
			}
			word = 0
		}
		more = c == ','
	}
	if j&63 != 0 && store {
		r.packed = append(r.packed, word)
	}
	r.endRow(i, j)
	return nil
}

// bit scans element j of float row i and sets bit j of word if it is 1.
// A number that is neither 0 nor 1, and null, are recorded in r; any
// other value ends the scan.
func (s *scanner) bit(r *rowSet, i, j int, word *uint64) error {
	switch c := s.peek(); {
	case c == 'n':
		r.fail("row %d column %d: value null is not a bit (0 or 1)", i, j)
		return s.lit("null")
	case c == '-' || c >= '0' && c <= '9':
		v, err := s.float()
		if err != nil {
			return fmt.Errorf("row %d column %d: %v", i, j, err)
		}
		if v == 1 {
			*word |= 1 << (j & 63)
		} else if v != 0 {
			r.fail("row %d column %d: value %v is not a bit (0 or 1)", i, j, v)
		}
		return nil
	}
	return s.typeError(fmt.Sprintf("row %d column %d is not a number", i, j))
}

// hexRow scans hex row i, packing its bytes when store is set. A null
// row is an empty string, as encoding/json decodes it.
func (s *scanner) hexRow(r *rowSet, i int, store bool) error {
	switch s.peek() {
	case 'n':
		r.endRow(i, 0)
		return s.lit("null")
	case '"':
	default:
		return s.typeError(fmt.Sprintf("hex row %d is not a string", i))
	}
	tok, simple, err := s.str()
	if err != nil {
		return err
	}
	h := tok[1 : len(tok)-1]
	if !simple {
		v, err := unquote(tok, false)
		if err != nil {
			return err
		}
		h = []byte(v)
	}
	var word uint64
	var bad byte // the OR of every nibble: above 0xf if one was not hex
	if len(h)%2 != 0 {
		bad = 0xff
	}
	k := 0
	for ; 2*k+1 < len(h); k++ {
		hi, lo := hexNibble[h[2*k]], hexNibble[h[2*k+1]]
		bad |= hi | lo
		word |= uint64(hi<<4|lo) << (8 * (k & 7))
		if k&7 == 7 {
			if store {
				r.packed = append(r.packed, word)
			}
			word = 0
		}
	}
	if bad > 0xf {
		_, err := bits.FromHex(string(h))
		r.fail("hex row %d: %v", i, err)
		return nil
	}
	if k&7 != 0 && store {
		r.packed = append(r.packed, word)
	}
	r.endRow(i, k)
	return nil
}

// hexNibble maps a hex digit to its value and every other byte to 0xff.
var hexNibble = func() (t [256]byte) {
	for c := range t {
		t[c] = 0xff
	}
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c - '0'
	}
	for c := byte('a'); c <= 'f'; c++ {
		t[c] = c - 'a' + 10
		t[c-'a'+'A'] = c - 'a' + 10
	}
	return t
}()

// labels scans a "labels" member, keeping the first maxBatch labels
// (a longer list cannot match the rows) and counting the rest.
func (s *scanner) labels(req *request, maxBatch int) error {
	req.labels, req.nLabels, req.nullAt = nil, 0, -1
	switch s.peek() {
	case 'n':
		return s.lit("null")
	case '[':
	default:
		return s.typeError("labels must be an array")
	}
	// A label takes at least two bytes ("0,").
	req.labels = make([]int, 0, min(maxBatch, (len(s.b)-s.i)/2))
	return s.array(func(i int) error {
		var l int
		switch c := s.peek(); {
		case c == 'n':
			if req.nullAt < 0 {
				req.nullAt = i
			}
			if err := s.lit("null"); err != nil {
				return err
			}
		case c == '-' || c >= '0' && c <= '9':
			tok, err := s.num()
			if err != nil {
				return err
			}
			v, err := strconv.ParseInt(string(tok), 10, 64)
			if err != nil {
				return fmt.Errorf("label %d: %v", i, err)
			}
			l = int(v)
		default:
			return s.typeError(fmt.Sprintf("label %d is not a number", i))
		}
		req.nLabels++
		if i < maxBatch {
			req.labels = append(req.labels, l)
		}
		return nil
	})
}

// sigmas scans a "sigmas" member; null leaves it as it was.
func (s *scanner) sigmas(dst *float64) error {
	switch c := s.peek(); {
	case c == 'n':
		return s.lit("null")
	case c == '-' || c >= '0' && c <= '9':
		v, err := s.float()
		if err != nil {
			return fmt.Errorf("sigmas: %v", err)
		}
		*dst = v
		return nil
	}
	return s.typeError("sigmas must be a number")
}
