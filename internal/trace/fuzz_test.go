package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func fuzzEvents() []Event {
	return []Event{
		{Kind: KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"},
		{Kind: KindEnter, Ctx: 0, Call: 1, Time: 10},
		{Kind: KindComm, Ctx: 0, Call: 1, SrcCtx: -1, Bytes: 64, Time: 12},
		{Kind: KindOps, Ctx: 0, Call: 1, Ops: 5, Time: 20},
		{Kind: KindLeave, Ctx: 0, Call: 1, Time: 21},
	}
}

// FuzzReader checks the event-file decoder never panics or over-allocates
// on corrupt input, across both the sequential and parallel decode paths.
func FuzzReader(f *testing.F) {
	// Seed with a real encoded stream and mutations of it.
	var v3 bytes.Buffer
	w := NewWriter(&v3)
	for _, e := range fuzzEvents() {
		_ = w.Emit(e)
	}
	_ = w.Close()
	f.Add(v3.Bytes())
	// The same stream under the retired version bytes 2 and 1.
	for _, v := range []byte{2, 1} {
		old := bytes.Clone(v3.Bytes())
		old[len(magic)-1] = v
		f.Add(old)
	}
	f.Add([]byte{})
	f.Add([]byte("SIGEVT"))
	f.Add(append(append([]byte{}, v3.Bytes()...), 0xFF, 0xFF, 0xFF))
	f.Add(v3.Bytes()[:len(v3.Bytes())-2]) // cut mid-trailer
	f.Add(v3.Bytes()[:len(magic)+12])     // cut inside the first frame
	for _, hf := range hostileFooters() {
		f.Add(hf.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 10000; i++ {
			if _, err := r.Next(); err != nil {
				break // io.EOF or a decode error; both are fine, panics are not
			}
		}
		// The parallel path must agree with the sequential one on validity.
		seq, seqErr := ReadAllWorkers(bytes.NewReader(data), 1)
		par, parErr := ReadAllWorkers(bytes.NewReader(data), 4)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("sequential err %v, parallel err %v", seqErr, parErr)
		}
		if seqErr == nil {
			if len(seq.Events) != len(par.Events) || len(seq.Contexts) != len(par.Contexts) {
				t.Fatalf("sequential decoded %d/%d, parallel %d/%d",
					len(seq.Events), len(seq.Contexts), len(par.Events), len(par.Contexts))
			}
		}
		// Salvage must tolerate anything with a readable header.
		if _, _, err := Salvage(bytes.NewReader(data)); err != nil && bytes.HasPrefix(data, magic) {
			t.Fatalf("salvage failed on valid header: %v", err)
		}
	})
}

// FuzzFrameReader fuzzes the version-3 frame layer directly: arbitrary
// bytes are decoded as the post-magic region of a v3 stream (frames,
// footer, trailer). The decoder must never panic, never allocate beyond
// its sanity caps, and must reject anything that does not checksum.
func FuzzFrameReader(f *testing.F) {
	// Seed with a real frame+footer region, a lone frame, a lone footer,
	// and mutations.
	var full bytes.Buffer
	w := NewWriterOptions(&full, WriterOptions{FrameEvents: 2})
	for _, e := range fuzzEvents() {
		_ = w.Emit(e)
	}
	_ = w.Close()
	region := full.Bytes()[len(magic):]
	f.Add(region)
	f.Add(region[:len(region)/2])
	f.Add(appendFooter(nil, nil, 0, 0))
	mut := append([]byte{}, region...)
	if len(mut) > 10 {
		mut[10] ^= 0x80
	}
	f.Add(mut)
	f.Add([]byte{frameByte, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{footerByte, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append(append([]byte{}, magic...), data...)
		rd := NewReader(bytes.NewReader(stream))
		var n int
		var err error
		for {
			if _, err = rd.Next(); err != nil {
				break
			}
			if n++; n > 1<<20 {
				t.Fatal("decoder did not terminate")
			}
		}
		if errors.Is(err, io.EOF) && !rd.footerSeen {
			t.Fatal("clean EOF without a verified footer")
		}
	})
}

// FuzzQuarantineReader fuzzes the quarantine-and-continue salvage path:
// arbitrary corruption applied to a valid v3 stream must never panic, must
// keep the byte accounting closed (every record byte is decoded,
// quarantined, or discarded tail — never double-counted), and must never
// claim more events than the frames could hold.
func FuzzQuarantineReader(f *testing.F) {
	var base bytes.Buffer
	w := NewWriterOptions(&base, WriterOptions{FrameEvents: 4})
	for i := 0; i < 6; i++ {
		for _, e := range fuzzEvents() {
			_ = w.Emit(e)
		}
	}
	_ = w.Close()
	stream := base.Bytes()
	f.Add(stream, 20, byte(0x10))
	f.Add(stream, 50, byte(0xFF))
	f.Add(stream, len(stream)-3, byte(0x01))
	f.Add(stream, len(magic), byte(0xF6))
	f.Add(stream[:len(stream)/2], 12, byte(0x40))

	f.Fuzz(func(t *testing.T, data []byte, off int, mask byte) {
		mut := append([]byte{}, data...)
		if len(mut) > len(magic) && off >= len(magic) {
			mut[len(magic)+(off-len(magic))%(len(mut)-len(magic))] ^= mask
		}
		tr, rep, err := Salvage(bytes.NewReader(mut))
		if err != nil {
			if len(mut) >= len(magic) && bytes.Equal(mut[:len(magic)], magic) {
				t.Fatalf("salvage failed on a valid v3 header: %v", err)
			}
			return
		}
		// Byte accounting must close: verified and quarantined bytes are
		// disjoint subsets of the record region.
		if rep.BytesValid < 0 || rep.BytesQuarantined < 0 {
			t.Fatalf("negative byte accounting: %+v", rep)
		}
		if rep.BytesValid+rep.BytesQuarantined > rep.BytesTotal {
			t.Fatalf("accounting overflow: valid %d + quarantined %d > total %d",
				rep.BytesValid, rep.BytesQuarantined, rep.BytesTotal)
		}
		if got := len(tr.Events) + len(tr.Contexts); got != rep.Events {
			// Contexts can collapse in the map only on duplicate IDs, which
			// fuzzEvents does not produce for surviving frames... but a
			// forged frame can. Only the report overcounting is a bug.
			if got > rep.Events {
				t.Fatalf("trace holds %d records, report says %d", got, rep.Events)
			}
		}
		if rep.FramesQuarantined != len(rep.Quarantined) {
			t.Fatalf("FramesQuarantined %d != len(Quarantined) %d", rep.FramesQuarantined, len(rep.Quarantined))
		}
		for _, q := range rep.Quarantined {
			if q.Start < int64(len(magic)) || q.End <= q.Start {
				t.Fatalf("quarantined range [%d,%d) out of order", q.Start, q.End)
			}
			if q.End > int64(len(magic))+rep.BytesTotal {
				t.Fatalf("quarantined range [%d,%d) beyond input end %d", q.Start, q.End, int64(len(magic))+rep.BytesTotal)
			}
		}
		if rep.Complete && (rep.Truncated || rep.FramesQuarantined > 0 || rep.Err != nil || rep.EventsDropped > 0) {
			t.Fatalf("contradictory report: %+v", rep)
		}
	})
}

// hostileFooter is a complete-looking event file a few dozen bytes long.
type hostileFooter struct {
	name string
	data []byte
}

// hostileFooters once made ReadAllWorkers preallocate hundreds of
// megabytes to gigabytes: footers whose event total or index length far
// exceeds what the file's bytes could hold.
func hostileFooters() []hostileFooter {
	// A footer body that declares 2^24 index entries and then ends; the
	// trailer still frames it, so it reaches the footer parser.
	foot := binary.AppendUvarint([]byte{footerByte}, 1<<24)
	hugeIndex := append(bytes.Clone(magic), foot...)
	hugeIndex = binary.LittleEndian.AppendUint32(hugeIndex, uint32(len(foot)))
	hugeIndex = append(hugeIndex, trailerMagic[:]...)
	return []hostileFooter{
		{"empty index, 2^24 events", appendFooter(bytes.Clone(magic), nil, 1<<24, 0)},
		{"one index entry, 2^25 events", appendFooter(bytes.Clone(magic), []frameEntry{{}}, 1<<25, 0)},
		{"2^24 index entries", hugeIndex},
	}
}

// TestHostileFooterBoundedAlloc checks the footer's preallocation hint is
// bounded by the input: each hostile file must be refused as corrupt or
// truncated after allocating under 1 MiB, sequentially and in parallel.
func TestHostileFooterBoundedAlloc(t *testing.T) {
	const allocBound = 1 << 20
	for _, hf := range hostileFooters() {
		for _, workers := range []int{1, 4} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadAllWorkers(bytes.NewReader(hf.data), workers)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Errorf("%s (%d bytes), %d workers: err = %v, want corrupt or truncated", hf.name, len(hf.data), workers, err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= allocBound {
				t.Errorf("%s (%d bytes), %d workers: allocated %d bytes, want < %d", hf.name, len(hf.data), workers, n, allocBound)
			}
		}
	}
}
