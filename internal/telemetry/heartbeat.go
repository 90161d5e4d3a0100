package telemetry

import (
	"log/slog"
	"time"
)

// Heartbeat periodically logs run progress — instructions/sec, shadow
// growth, events, and remaining budget — so a multi-minute instrumented
// run is never silent and a BudgetError is a diagnosis, not a surprise.
// It runs on its own goroutine and keeps beating while the run winds down
// after cancellation, which is exactly when visibility matters most.
type Heartbeat struct {
	log  *slog.Logger
	m    *Metrics
	stop chan struct{}
	done chan struct{}
}

// StartHeartbeat begins logging one "heartbeat" record per interval.
// Call Stop to emit a final beat and shut the goroutine down.
func StartHeartbeat(log *slog.Logger, m *Metrics, every time.Duration) *Heartbeat {
	h := &Heartbeat{log: log, m: m, stop: make(chan struct{}), done: make(chan struct{})}
	go h.run(every)
	return h
}

func (h *Heartbeat) run(every time.Duration) {
	defer close(h.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	prev := h.m.Snapshot()
	prevAt := time.Now()
	for {
		select {
		case <-h.stop:
			h.beat(&prev, &prevAt, true)
			return
		case <-tick.C:
			h.beat(&prev, &prevAt, false)
		}
	}
}

// beat logs one progress record and advances the delta baseline.
func (h *Heartbeat) beat(prev *Snapshot, prevAt *time.Time, final bool) {
	now := time.Now()
	cur := h.m.Snapshot()
	elapsed := now.Sub(*prevAt)

	ips := 0.0
	if elapsed > 0 {
		ips = float64(cur.Delta(*prev, Instrs)) / elapsed.Seconds()
	}
	attrs := []any{
		slog.Uint64("instrs", cur[Instrs]),
		slog.Float64("instrs_per_sec", ips),
		slog.Uint64("shadow_chunks", cur[ShadowChunksLive]),
		slog.Float64("shadow_mib", float64(cur[ShadowBytesResident])/(1<<20)),
		slog.Uint64("shadow_growth_chunks", cur.Delta(*prev, ShadowChunksAllocated)),
		slog.Uint64("events", cur[EventsEmitted]),
		slog.Uint64("contexts", cur[Contexts]),
	}
	if b := cur[BudgetInstrs]; b > 0 {
		left := uint64(0)
		if cur[Instrs] < b {
			left = b - cur[Instrs]
		}
		attrs = append(attrs, slog.Uint64("budget_instrs_left", left))
	}
	if b := int64(cur[BudgetWallNanos]); b > 0 && cur[RunStartNanos] > 0 {
		left := time.Duration(int64(cur[RunStartNanos]) + b - now.UnixNano())
		if left < 0 {
			left = 0
		}
		attrs = append(attrs, slog.Duration("budget_wall_left", left))
	}
	if final {
		attrs = append(attrs, slog.Bool("final", true))
	}
	h.log.Info("heartbeat", attrs...)
	*prev = cur
	*prevAt = now
}

// Stop emits a final beat and waits for the heartbeat goroutine to exit.
// Safe to call once.
func (h *Heartbeat) Stop() {
	close(h.stop)
	<-h.done
}
