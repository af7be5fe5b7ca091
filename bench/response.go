package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// A readResponse is what the harness checks of a /query or /execute
// response: the rows (as a count and an order-insensitive hash) and the
// accounting the server reports beside them.
type readResponse struct {
	Rows     int    `json:"-"` // rows actually present in the body
	RowHash  uint64 `json:"-"` // sum of the per-row hashes: independent of row order
	RowCount int    `json:"row_count"`
	Cout     float64
	Work     float64
	Scanned  int
	CacheHit bool `json:"cache_hit"`
}

// FNV-1a, inlined so hashing a cell costs no allocation and no interface
// call: the load generator shares two cores with the server it measures.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	cellSep   = 0xff // never occurs in UTF-8, so cell boundaries are unambiguous
)

// hashRow hashes one decoded row; rowsHash sums it over a result. The
// reference evaluation and parseResponse must agree byte for byte.
func hashRow(cells []string) uint64 {
	h := uint64(fnvOffset)
	for _, c := range cells {
		for i := 0; i < len(c); i++ {
			h = (h ^ uint64(c[i])) * fnvPrime
		}
		h = (h ^ cellSep) * fnvPrime
	}
	return h
}

func rowsHash(rows [][]string) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += hashRow(r)
	}
	return sum
}

var rowsKey = []byte(`"rows":[`)

// parseResponse decodes a result payload. Large results are the point of
// some workloads, and decoding a megabyte of rows with encoding/json
// would cost the client more CPU than the server spent producing it, so
// the rows array is hashed by a single hand-written pass over its decoded
// cell strings and cut out; only the small remainder goes through
// encoding/json. Any body the fast pass does not understand falls back to
// a full decode, so a change of the server's encoder cannot fail a run.
func parseResponse(body []byte, scratch *[]byte) (readResponse, error) {
	var r readResponse
	start := bytes.Index(body, rowsKey)
	if start < 0 {
		return parseResponseSlow(body)
	}
	start += len(rowsKey)
	end, err := scanRows(body, start, &r)
	if err != nil {
		return parseResponseSlow(body)
	}
	rest := append((*scratch)[:0], body[:start]...)
	rest = append(rest, body[end:]...)
	*scratch = rest
	if err := json.Unmarshal(rest, &r); err != nil {
		return r, fmt.Errorf("decoding response: %w", err)
	}
	return r, nil
}

func parseResponseSlow(body []byte) (readResponse, error) {
	var full struct {
		readResponse
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &full); err != nil {
		return readResponse{}, fmt.Errorf("decoding response: %w", err)
	}
	r := full.readResponse
	r.Rows = len(full.Rows)
	r.RowHash = rowsHash(full.Rows)
	return r, nil
}

var errRows = errors.New("unexpected byte in rows array")

// scanRows walks body from just inside the rows array's '[' to its
// closing ']', adding every row to r, and returns the index of that ']'.
func scanRows(body []byte, i int, r *readResponse) (int, error) {
	for {
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0, errRows
		}
		switch body[i] {
		case ']':
			return i, nil
		case ',':
			i++
		case '[':
			h, next, err := scanRow(body, i+1)
			if err != nil {
				return 0, err
			}
			r.Rows++
			r.RowHash += h
			i = next
		default:
			return 0, errRows
		}
	}
}

// scanRow hashes one row starting just inside its '[' and returns the
// index after its ']'.
func scanRow(body []byte, i int) (uint64, int, error) {
	h := uint64(fnvOffset)
	for {
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0, 0, errRows
		}
		switch body[i] {
		case ']':
			return h, i + 1, nil
		case ',':
			i++
		case '"':
			var err error
			if h, i, err = scanString(body, i+1, h); err != nil {
				return 0, 0, err
			}
			h = (h ^ cellSep) * fnvPrime
		default:
			return 0, 0, errRows
		}
	}
}

// scanString folds the decoded bytes of the JSON string starting just
// inside its opening quote into h and returns the index after the closing
// quote.
func scanString(body []byte, i int, h uint64) (uint64, int, error) {
	for i < len(body) {
		c := body[i]
		switch {
		case c == '"':
			return h, i + 1, nil
		case c != '\\':
			h = (h ^ uint64(c)) * fnvPrime
			i++
		default:
			if i+1 >= len(body) {
				return 0, 0, errRows
			}
			i++
			var lit byte
			switch body[i] {
			case '"', '\\', '/':
				lit = body[i]
			case 'b':
				lit = '\b'
			case 'f':
				lit = '\f'
			case 'n':
				lit = '\n'
			case 'r':
				lit = '\r'
			case 't':
				lit = '\t'
			case 'u':
				ru, next, err := scanEscapedRune(body, i+1)
				if err != nil {
					return 0, 0, err
				}
				var enc [utf8.UTFMax]byte
				for _, b := range enc[:utf8.EncodeRune(enc[:], ru)] {
					h = (h ^ uint64(b)) * fnvPrime
				}
				i = next
				continue
			default:
				return 0, 0, errRows
			}
			h = (h ^ uint64(lit)) * fnvPrime
			i++
		}
	}
	return 0, 0, errRows
}

// scanEscapedRune decodes the four hex digits at body[i:] (after "\u"),
// joining a surrogate pair when a second escape follows.
func scanEscapedRune(body []byte, i int) (rune, int, error) {
	r, ok := hex4(body, i)
	if !ok {
		return 0, 0, errRows
	}
	i += 4
	if utf16.IsSurrogate(r) && i+6 <= len(body) && body[i] == '\\' && body[i+1] == 'u' {
		if r2, ok := hex4(body, i+2); ok {
			if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
				return dec, i + 6, nil
			}
		}
	}
	if utf16.IsSurrogate(r) {
		r = utf8.RuneError
	}
	return r, i, nil
}

func hex4(body []byte, i int) (rune, bool) {
	if i+4 > len(body) {
		return 0, false
	}
	var r rune
	for _, c := range body[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, false
		}
	}
	return r, true
}

func skipSpace(body []byte, i int) int {
	for i < len(body) && (body[i] == ' ' || body[i] == '\n' || body[i] == '\t' || body[i] == '\r') {
		i++
	}
	return i
}
