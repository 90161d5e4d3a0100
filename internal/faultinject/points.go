package faultinject

// Canonical fault-point names. Production code references these constants
// at its failure-prone operations; the chaos sweep iterates Points() to
// replay every failure class the codebase claims to survive.
//
// Write-shaped points (wired through WrapWriter) honor every Mode; op
// points (wired through Fire) only fail or pass, so ShortWrite/Torn/
// BitFlip plans on them degrade to Err. Read-shaped points honor Err,
// ENOSPC (as a read error), and BitFlip.
const (
	// safeio.WriteFile: temp-file creation, the fill writes, fsync,
	// close, and the final rename — the atomic-replace pipeline every
	// profile, report and callgrind dump goes through.
	SafeioCreate = "safeio.create"
	SafeioWrite  = "safeio.write"
	SafeioSync   = "safeio.sync"
	SafeioClose  = "safeio.close"
	SafeioRename = "safeio.rename"

	// The v3 trace writer's sink writes (frame bytes and footer, beneath
	// the encoder's buffer).
	TraceWriteV3 = "trace.v3.write"

	// The event-file reader's source reads.
	TraceRead = "trace.read"

	// trace.FileSink: the event file's own temp-create/fsync/close/rename
	// pipeline around the v3 writer.
	SinkCreate = "trace.sink.create"
	SinkSync   = "trace.sink.sync"
	SinkClose  = "trace.sink.close"
	SinkRename = "trace.sink.rename"
)

// Points returns every canonical fault point, in a stable order. The chaos
// sweep treats this as the coverage contract: each entry must be reachable
// by at least one workload × mode combination.
func Points() []string {
	return []string{
		SafeioCreate, SafeioWrite, SafeioSync, SafeioClose, SafeioRename,
		TraceWriteV3, TraceRead,
		SinkCreate, SinkSync, SinkClose, SinkRename,
	}
}

// WritePoints returns the points that carry a data buffer on the write
// side, where ShortWrite/Torn/BitFlip plans are meaningful.
func WritePoints() []string {
	return []string{SafeioWrite, TraceWriteV3}
}

// ReadPoints returns the points that carry a data buffer on the read side.
func ReadPoints() []string {
	return []string{TraceRead}
}
