//go:build unix

package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestFileSinkIntoNamedPipe: an event file whose path is a named pipe is
// written in place, so the pipe's reader decodes the whole stream and the
// pipe stays a pipe. The stream is smaller than the pipe's buffer, so
// Commit returns before anything reads it.
func TestFileSinkIntoNamedPipe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.evt")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	sink, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sampleEvents() {
		if err := sink.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("the pipe's reader got %d bytes that do not decode: %v", len(data), err)
	}
	if len(tr.Events)+len(tr.Contexts) != len(sampleEvents()) {
		t.Errorf("the pipe's reader decoded %d events and contexts, want %d", len(tr.Events)+len(tr.Contexts), len(sampleEvents()))
	}
	if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Errorf("%s after Commit: %v, %v; want a named pipe", path, fi, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %v, want the pipe alone", entries)
	}
}
