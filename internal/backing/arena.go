package backing

// Chunked arenas back the store's entries, state rows, and epoch nodes.
// append-grown slices were the sharded benchmark's dominant allocator
// (the 1.25× growth policy copies every entry repeatedly and leaves the
// superseded arrays as garbage — ~5× the final footprint per window);
// fixed-size chunks never move existing items, and reset() keeps the
// chunks so a tumbling window's next fill touches no allocator at all.

// chunkShift sizes every arena chunk at 2048 items: large enough that
// chunk-append is rare, small enough that a store with a handful of keys
// doesn't pin megabytes.
const (
	chunkShift = 11
	chunkMask  = 1<<chunkShift - 1
)

// chunked is an arena of POD items addressed by a stable int32 id.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

// alloc returns the next item's id and pointer. The item may hold stale
// bytes from before a reset — callers assign the full value.
func (a *chunked[T]) alloc() (int32, *T) {
	ci := a.n >> chunkShift
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, 1<<chunkShift))
	}
	i := a.n
	a.n++
	return int32(i), &a.chunks[ci][i&chunkMask]
}

// run allocates the next min(n, what is left of the current chunk) items,
// contiguous, and returns them. Like alloc's, they may hold stale bytes.
func (a *chunked[T]) run(n int) []T {
	ci, off := a.n>>chunkShift, a.n&chunkMask
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, 1<<chunkShift))
	}
	n = min(n, 1<<chunkShift-off)
	a.n += n
	return a.chunks[ci][off : off+n]
}

// at returns item i.
func (a *chunked[T]) at(i int32) *T {
	return &a.chunks[i>>chunkShift][i&chunkMask]
}

// reset empties the arena, retaining the chunks for reuse.
func (a *chunked[T]) reset() { a.n = 0 }

// rowArena is a chunked arena of fixed-width float64 rows (the fold's
// state vectors). Row ids are stable; rows within a chunk are contiguous
// so bulk readers still walk memory linearly.
type rowArena struct {
	m      int
	chunks [][]float64
	n      int
}

// alloc returns the next row's id. Contents are stale until the caller
// fills the row.
func (a *rowArena) alloc() int32 {
	ci := a.n >> chunkShift
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]float64, a.m<<chunkShift))
	}
	i := a.n
	a.n++
	return int32(i)
}

// run allocates the next n rows, which the caller knows to lie in one
// chunk, and returns them as one contiguous slice of n·m words.
func (a *rowArena) run(n int) []float64 {
	ci, off := a.n>>chunkShift, (a.n&chunkMask)*a.m
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]float64, a.m<<chunkShift))
	}
	a.n += n
	return a.chunks[ci][off : off+n*a.m]
}

// row returns row i, capped so appends can't bleed into the neighbour.
func (a *rowArena) row(i int32) []float64 {
	c := a.chunks[i>>chunkShift]
	off := int(i&chunkMask) * a.m
	return c[off : off+a.m : off+a.m]
}

// reset empties the arena, retaining the chunks for reuse.
func (a *rowArena) reset() { a.n = 0 }
