package workload

import (
	"errors"
	"strconv"
)

// Keys and rows are text: "a:1:523" and "-37|2|xxxx…" (integer fields, each
// followed by '|', then filler). The generators build and parse them on
// every transaction, so they do it with strconv and no fmt, and off the
// heap. A row is encoded into its workload instance's scratch buffer
// (appendRow), which Tx.Put copies before it yields. A key of a finite
// family (an account, a stock row) comes from a table the instance fills on
// first use (keyTable); any other key (an order, a history row) is built
// into the instance's arena (arenaKey), because a transaction holds its keys
// until it ends and a journal keeps them. What still allocates is a row the
// journal keeps, and an arena's next chunk. Parsing never allocates. The
// formats are exactly what fmt.Sprintf("%s:%d:%d") /
// Sprintf("%d|%d|%s") / Sscanf("%d|%d|") produced (codec_test.go pins
// that), so stored data and journals are unchanged.

// appendKey appends prefix followed by ":id" for each id to dst.
func appendKey(dst []byte, prefix string, ids ...int) []byte {
	dst = append(dst, prefix...)
	for _, id := range ids {
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return dst
}

// key returns appendKey's key in a string of its own.
func key(prefix string, ids ...int) string {
	var buf [48]byte
	return string(appendKey(buf[:0], prefix, ids...))
}

// arenaKey returns appendKey's key as a string in a.
func arenaKey(a *arena, prefix string, ids ...int) string {
	var buf [48]byte
	return a.copy(appendKey(buf[:0], prefix, ids...))
}

// keyTable memoises one finite key family: the keys key(prefix, ids...) for
// every ids on the grid 1..dims[0] × 1..dims[1] × …. Entries are built on
// first use and shared by every later one; ids off the grid are built
// fresh.
type keyTable struct {
	prefix string
	dims   []int
	keys   []string
}

func newKeyTable(prefix string, dims ...int) keyTable {
	return keyTable{prefix: prefix, dims: dims}
}

func (t *keyTable) key(ids ...int) string {
	i := 0
	for d, id := range ids {
		if id < 1 || id > t.dims[d] {
			return key(t.prefix, ids...)
		}
		i = i*t.dims[d] + id - 1
	}
	if t.keys == nil {
		n := 1
		for _, d := range t.dims {
			n *= d
		}
		t.keys = make([]string, n)
	}
	k := t.keys[i]
	if k == "" {
		k = key(t.prefix, ids...)
		t.keys[i] = k
	}
	return k
}

// row returns the fields, each followed by '|', then pad filler bytes, in
// a buffer of its own.
func row(pad int, fields ...int) []byte {
	return appendRow(make([]byte, 0, 12*len(fields)+pad), pad, fields...)
}

// appendRow appends row(pad, fields...) to dst.
func appendRow(dst []byte, pad int, fields ...int) []byte {
	for _, f := range fields {
		dst = strconv.AppendInt(dst, int64(f), 10)
		dst = append(dst, '|')
	}
	return appendFiller(dst, pad)
}

// scratch is the buffer one workload instance encodes the rows it Puts
// into. Every client of the instance shares it: that is safe because no
// client yields between encoding a row and Put's copy of it.
type scratch []byte

// row encodes row(pad, fields...) into s and returns it; the result is
// valid until the next call.
func (s *scratch) row(pad int, fields ...int) []byte {
	*s = appendRow((*s)[:0], pad, fields...)
	return *s
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
