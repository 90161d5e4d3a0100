package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func encodeStream(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSalvageComplete(t *testing.T) {
	events := sampleEvents()
	tr, rep, err := Salvage(bytes.NewReader(encodeStream(t, events)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Err != nil {
		t.Errorf("complete stream reported %+v", rep)
	}
	if rep.Events != len(events) {
		t.Errorf("recovered %d of %d events", rep.Events, len(events))
	}
	if rep.EstimatedTotal() != len(events) {
		t.Errorf("estimate %d for complete stream of %d", rep.EstimatedTotal(), len(events))
	}
	if !strings.Contains(rep.String(), "footer verified") {
		t.Errorf("report = %q", rep)
	}
	if len(tr.Events)+len(tr.Contexts) != len(events) {
		t.Errorf("trace holds %d events + %d contexts", len(tr.Events), len(tr.Contexts))
	}
}

// TestSalvageEveryTruncation cuts the stream at every byte offset past the
// header: Salvage must never error, never report Complete, and always
// recover a valid prefix no longer than the original.
func TestSalvageEveryTruncation(t *testing.T) {
	events := sampleEvents()
	full := encodeStream(t, events)
	for cut := len(magic); cut < len(full); cut++ {
		tr, rep, err := Salvage(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rep.Complete {
			t.Errorf("cut %d: reported complete", cut)
		}
		if rep.Events > len(events) {
			t.Errorf("cut %d: recovered %d events from a stream of %d", cut, rep.Events, len(events))
		}
		if got := len(tr.Events) + len(tr.Contexts); got != rep.Events {
			t.Errorf("cut %d: report says %d, trace holds %d", cut, rep.Events, got)
		}
		if rep.EstimatedTotal() < rep.Events {
			t.Errorf("cut %d: estimate %d below recovered %d", cut, rep.EstimatedTotal(), rep.Events)
		}
	}
}

func TestSalvageReportString(t *testing.T) {
	events := sampleEvents()
	full := encodeStream(t, events)
	_, rep, err := Salvage(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "recovered") || !strings.Contains(s, "of ~") {
		t.Errorf("truncation report = %q", s)
	}
}

func TestSalvageCorrupt(t *testing.T) {
	full := encodeStream(t, sampleEvents())
	// Flip a byte in the middle of the record region.
	mut := append([]byte{}, full...)
	mut[len(full)/2] ^= 0x40
	_, rep, err := Salvage(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Error("corrupt stream reported complete")
	}
}

func TestSalvageNotAnEventFile(t *testing.T) {
	if _, _, err := Salvage(bytes.NewReader([]byte("definitely not"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReaderCorruptFooter(t *testing.T) {
	full := encodeStream(t, sampleEvents())
	mut := append([]byte{}, full...)
	mut[len(mut)-1] ^= 0x01 // damage the footer checksum
	var err error
	r := NewReader(bytes.NewReader(mut))
	for {
		if _, err = r.Next(); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestFileSinkCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.evt")
	sink, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEvents() {
		if err := sink.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("target exists before Commit")
	}
	if err := sink.Commit(); err != nil {
		t.Fatal(err)
	}
	sink.Abort() // after Commit: must be a no-op
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, rep, err := Salvage(f)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Errorf("committed file not footer-complete: %v", rep)
	}
	if len(tr.Events)+len(tr.Contexts) != len(sampleEvents()) {
		t.Error("committed file lost events")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

func TestFileSinkAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.evt")
	sink, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEvents() {
		if err := sink.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	sink.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("target exists after Abort")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("directory not empty after Abort: %v", entries)
	}
}
