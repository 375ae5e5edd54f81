package workload

import (
	"errors"
	"strconv"
)

// Keys and rows are text: "a:1:523" and "-37|2|xxxx…" (integer fields, each
// followed by '|', then filler). The generators build and parse them on
// every transaction, so they do it with strconv and no fmt: one allocation
// per key or row, none per parse. The formats are exactly what
// fmt.Sprintf("%s:%d:%d") / Sprintf("%d|%d|%s") / Sscanf("%d|%d|") produced
// (codec_test.go pins that), so stored data and journals are unchanged.

// key returns prefix followed by ":id" for each id.
func key(prefix string, ids ...int) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	for _, id := range ids {
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// row returns the fields, each followed by '|', then pad filler bytes.
func row(pad int, fields ...int) []byte {
	b := make([]byte, 0, 12*len(fields)+pad)
	for _, f := range fields {
		b = strconv.AppendInt(b, int64(f), 10)
		b = append(b, '|')
	}
	return appendFiller(b, pad)
}

func appendFiller(b []byte, n int) []byte {
	const xs = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
	for ; n > len(xs); n -= len(xs) {
		b = append(b, xs...)
	}
	return append(b, xs[:n]...)
}

var errBadRow = errors.New("workload: malformed row")

// parseRow reads the leading integer fields of a row into dst, one
// "<int>|" per destination. Fields before a malformed one are still stored.
func parseRow(v []byte, dst ...*int) error {
	for _, d := range dst {
		i, neg := 0, false
		if i < len(v) && v[i] == '-' {
			neg, i = true, 1
		}
		digits, n := i, 0
		for ; i < len(v) && v[i] >= '0' && v[i] <= '9'; i++ {
			n = n*10 + int(v[i]-'0')
		}
		if i == digits || i == len(v) || v[i] != '|' {
			return errBadRow
		}
		if neg {
			n = -n
		}
		*d = n
		v = v[i+1:]
	}
	return nil
}
