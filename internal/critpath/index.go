package critpath

// callIndex resolves call numbers to the replay's per-call state. The
// profiler numbers calls densely from 1, so the common case is a slice
// indexed by call number. The slice grows only while numbers stay below a
// bound proportional to the events consumed (2·events + denseSlack);
// larger numbers, which only hostile or heavily salvaged files carry, go
// to a map instead. Either way memory stays O(events).
type callIndex[T any] struct {
	dense  []*T
	sparse map[uint64]*T // nil until a call number exceeds the dense bound
}

// denseSlack is the dense bound's headroom over 2·events, so the first
// calls of a stream, and numbering gaps left by a few lost frames, still
// take the slice path.
const denseSlack = 1024

// get returns the state of call, or nil if no Enter recorded it.
func (x *callIndex[T]) get(call uint64) *T {
	if call < uint64(len(x.dense)) {
		if p := x.dense[call]; p != nil {
			return p
		}
	}
	if x.sparse == nil {
		return nil
	}
	// A number can sit in the map below len(dense) when the slice grew
	// past it after it was recorded.
	return x.sparse[call]
}

// put records v as the state of call once events events have been
// consumed. A re-entered number replaces its previous state: get checks
// the slice first, and a number that reaches the map is above every slot
// the slice has ever had.
func (x *callIndex[T]) put(call uint64, v *T, events uint64) {
	if call >= uint64(len(x.dense)) {
		limit := 2*events + denseSlack
		if call >= limit {
			if x.sparse == nil {
				x.sparse = make(map[uint64]*T)
			}
			x.sparse[call] = v
			return
		}
		grown := make([]*T, min(max(2*uint64(len(x.dense)), call+1), limit))
		copy(grown, x.dense)
		x.dense = grown
	}
	x.dense[call] = v
}

// chunkLen is how many values one arena chunk holds.
const chunkLen = 1024

// arena hands out zeroed T values carved from fixed-size chunks, so a pass
// makes one allocation per chunkLen values instead of one per value.
// Chunks are never resized, so the pointers stay valid.
type arena[T any] struct {
	free []T
}

func (a *arena[T]) alloc() *T {
	if len(a.free) == 0 {
		a.free = make([]T, chunkLen)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	return p
}
