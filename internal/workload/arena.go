package workload

import "strings"

// arenaChunk is the size of the chunks an arena copies strings into.
const arenaChunk = 8 << 10

// arena hands out immutable strings copied into large chunks, so the keys a
// workload builds cost one allocation per chunk rather than one each. It
// only appends: a string it returned keeps its bytes, and its chunk, for as
// long as anything holds it. The zero arena is ready to use. It holds a
// strings.Builder, which must not be copied, so keep an arena behind a
// pointer.
type arena struct {
	chunk strings.Builder
}

// copy returns a string with b's bytes, stored in the arena.
func (a *arena) copy(b []byte) string {
	if a.chunk.Cap()-a.chunk.Len() < len(b) {
		a.chunk.Reset() // strings already handed out keep the old chunk
		a.chunk.Grow(max(arenaChunk, len(b)))
	}
	n := a.chunk.Len()
	a.chunk.Write(b)
	return a.chunk.String()[n:]
}
